"""The send-determinism formalism (§2.1) as an executable check.

:mod:`repro.trace.determinism` replays an application under perturbed
message timing and verifies that every process emits the identical send
sequence (Definition 1).  It captures sends through the kernel's
``Simulator.trace_hook``: each application send is one ``eager`` or ``rts``
frame, whose envelope's scalar fields are copied out (never the envelope
itself) and ordered by the sending PML's ``msg_id``.
"""

from repro.trace.determinism import DeterminismReport, check_send_determinism

__all__ = ["DeterminismReport", "check_send_determinism"]
