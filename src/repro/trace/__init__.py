"""Observability and the send-determinism formalism (§2.1).

* :mod:`repro.trace.events`      — typed event records (the paper's e^k_i)
* :mod:`repro.trace.lamport`     — Lamport clocks / happened-before [14]
* :mod:`repro.trace.recorder`    — per-process send/receive sequence capture
* :mod:`repro.trace.determinism` — Definition 1 as an executable check:
  replay an application under perturbed message timing and verify that
  every process emits the identical send sequence.
"""

from repro.trace.events import SendEvent
from repro.trace.lamport import LamportClock, happened_before
from repro.trace.recorder import Recorder, TraceSet
from repro.trace.determinism import DeterminismReport, check_send_determinism

__all__ = [
    "DeterminismReport",
    "LamportClock",
    "Recorder",
    "SendEvent",
    "TraceSet",
    "check_send_determinism",
    "happened_before",
]
