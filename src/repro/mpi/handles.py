"""Application-level completion handles.

These are the request objects the MPI wait loops poll: a
:class:`SendHandle` aggregates library-level send requests plus protocol
completion conditions (SDR-MPI's "all r-1 acks collected"), a
:class:`RecvHandle` wraps one PML receive request.  They live in
:mod:`repro.mpi` (rather than with the protocol interposition contract in
:mod:`repro.core.interpose`, which re-exports them) so the API facade can
poll their slots directly without creating an import cycle.

Contract: handles are **passive** completion records.  A wait loop reads
``pml_req.done`` (receives) or ``needs_ack`` + ``pml_reqs`` (sends) and
nothing else — it never calls into a handle.  A protocol that must act
later (post a deferred receive, resend after a failover) does so from its
own ctrl handler or hook and mutates the records the handle points at;
subclasses may add slots (SDR's resend bookkeeping) but not behaviour.
"""

from __future__ import annotations

from typing import Any, List, Optional, TYPE_CHECKING

from repro.mpi.status import Status

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.mpi.pml import PmlRecvRequest, PmlSendRequest

__all__ = ["SendHandle", "RecvHandle"]


class SendHandle:
    """Application-level send completion handle.

    ``done`` is MPI_Wait's predicate for the send: the library-level sends
    have completed *and* every protocol condition holds.  ``needs_ack`` is
    populated by parallel protocols (empty for native/mirror).
    """

    __slots__ = ("pml_reqs", "needs_ack", "status", "world_dst", "seq", "payload", "nbytes")

    def __init__(
        self,
        pml_reqs: List["PmlSendRequest"],
        world_dst: int,
        seq: int,
        payload: Any = None,
        nbytes: int = 0,
    ) -> None:
        self.pml_reqs = pml_reqs
        self.needs_ack: set = set()
        self.status: Optional[Status] = None
        self.world_dst = world_dst
        self.seq = seq
        self.payload = payload
        self.nbytes = nbytes

    @property
    def done(self) -> bool:
        if self.needs_ack:
            return False
        reqs = self.pml_reqs
        if len(reqs) == 1:
            return reqs[0].done
        return all(r.done for r in reqs)


class RecvHandle:
    """Application-level receive handle wrapping a PML receive request."""

    __slots__ = ("pml_req",)

    def __init__(self, pml_req: "PmlRecvRequest") -> None:
        self.pml_req = pml_req

    @property
    def done(self) -> bool:
        return self.pml_req.done

    @property
    def data(self) -> Any:
        return self.pml_req.data

    @property
    def status(self) -> Optional[Status]:
        return self.pml_req.status
