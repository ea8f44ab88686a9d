"""Per-process event capture.

A :class:`Recorder` is installed on an :class:`~repro.mpi.api.MpiProcess`
(the harness wires one per physical process when tracing is requested); the
API facade calls :meth:`Recorder.record_send` for every application-level
send.  A :class:`TraceSet` aggregates one execution's recorders for
comparison across executions.

Ownership note: captures record **scalar fields only** (ranks, tags, byte
counts), never ``Envelope``/``Frame`` objects — those recycle through the
engine's arenas (see :mod:`repro.mpi.pml`) and would be reused under any
retained reference.  A future delivery-side tracer must follow the same
rule: envelopes are borrowed, never held.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.trace.events import SendEvent

__all__ = ["Recorder", "TraceSet"]


class Recorder:
    """Send-sequence capture for one physical process."""

    def __init__(self, proc: int, rank: int) -> None:
        self.proc = proc
        self.rank = rank
        self.sends: List[SendEvent] = []

    def record_send(
        self, ctx: Any, src_rank: int, dest_rank: int, world_dst: int, tag: int, nbytes: int
    ) -> None:
        self.sends.append(SendEvent(ctx, src_rank, dest_rank, world_dst, tag, nbytes))

    def send_keys(self) -> List[tuple]:
        return [e.key() for e in self.sends]


class TraceSet:
    """All recorders of one execution, keyed by physical process."""

    def __init__(self) -> None:
        self.recorders: Dict[int, Recorder] = {}

    def factory(self, proc: int, rank: int) -> Recorder:
        """Recorder factory compatible with Job(recorder_factory=...)."""
        rec = Recorder(proc, rank)
        self.recorders[proc] = rec
        return rec

    def send_sequences(self) -> Dict[int, List[tuple]]:
        """proc -> ordered send keys (S|p of Definition 1)."""
        return {proc: rec.send_keys() for proc, rec in sorted(self.recorders.items())}
