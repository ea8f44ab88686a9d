"""Shared machinery for all replication protocols.

Every replication protocol (SDR, mirror, leader-based, redMPI) needs the
same receive-side discipline:

* **logical-channel sequencing** — application message *s* on the logical
  channel (rank i → rank j) carries the same sequence number on every
  replica (send-determinism, Definition 1), regardless of which physical
  process transmitted it;
* **duplicate suppression** — mirror copies, substitute resends after a
  failover, and recovery replays may deliver the same logical message more
  than once;
* **in-order release** — MPI's non-overtaking guarantee must hold per
  logical channel even when the transmitting physical process changes
  mid-stream (failover, recovery), so envelopes are released to matching in
  sequence order, with a reorder buffer for early arrivals.

On the steady-state path (no failures) frames already arrive in order on a
single FIFO channel, so the filter is pure bookkeeping.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Optional

from repro.core.config import ReplicationConfig
from repro.core.interpose import BaseProtocol
from repro.core.io import ReplicatedIo, VirtualFileSystem
from repro.core.membership import MembershipService
from repro.core.worlds import ReplicaMap
from repro.mpi.pml import Pml
from repro.network.fabric import Frame

__all__ = ["ReplicatedBase"]


class ReplicatedBase(BaseProtocol):
    """Replica-aware protocol base: dedup + reorder + failure plumbing."""

    name = "replicated"

    SVC_HANDLERS = {"failure": "_svc_failure", "suspect": "_svc_suspect", "clear": "_svc_clear"}

    __slots__ = (
        "rmap",
        "membership",
        "cfg",
        "rank",
        "rep",
        "_expected",
        "_reorder",
        "duplicates_dropped",
        "suspicions_seen",
        "suspicion_clears_seen",
    )

    def __init__(
        self,
        pml: Pml,
        rmap: ReplicaMap,
        membership: MembershipService,
        cfg: ReplicationConfig,
    ) -> None:
        rank = rmap.rank_of(pml.proc)
        super().__init__(pml, world_rank=rank)
        self.rmap = rmap
        self.membership = membership
        self.cfg = cfg
        self.rank = rank
        self.rep = rmap.rep_of(pml.proc)
        #: next expected seq per sending logical rank (receive-side cursor)
        self._expected: Dict[int, int] = {}
        #: early arrivals per sending logical rank: seq -> message;
        #: lazy — crash-free single-channel traffic never reorders
        self._reorder: Optional[Dict[int, Dict[int, Frame]]] = None
        self.duplicates_dropped = 0
        self.suspicions_seen = 0
        self.suspicion_clears_seen = 0
        pml.incoming_filter = self._filter_incoming

    # --------------------------------------------------------- receive side
    def _filter_incoming(self, env: Frame) -> Generator[Any, Any, bool]:
        """Release application messages to matching in per-channel order.

        Always returns False: delivery (if any) is performed here so that
        held-back successors can be flushed in the right order.  Ownership
        contract: the PML hands this filter the message; every path below
        accounts for it — in-order and flushed messages are consumed by
        ``deliver_to_matching``, early arrivals are *owned by the reorder
        buffer* until flushed, and duplicates — a second copy of a parked
        seq included — are released once :meth:`_on_duplicate` has
        finished with the borrow.
        """
        src = env.world_src
        expected = self._expected.get(src, 0)
        seq = env.seq
        if seq == expected:
            self._expected[src] = expected + 1
            yield from self.pml.deliver_to_matching(env)
            reorder = self._reorder
            held = reorder.get(src) if reorder else None
            while held:
                nxt = self._expected[src]
                early = held.pop(nxt, None)
                if early is None:
                    break
                self._expected[src] = nxt + 1
                yield from self.pml.deliver_to_matching(early)
            return False
        if seq > expected:
            reorder = self._reorder
            if reorder is None:
                reorder = self._reorder = {}
            held = reorder.setdefault(src, {})
            if seq not in held:
                held[seq] = env
                return False
        # Duplicate (of a delivered or a parked seq): mirror copy,
        # substitute resend, recovery replay or a link duplicate.
        self.duplicates_dropped += 1
        try:
            yield from self._on_duplicate(env)
        except BaseException:
            # Fail-stop crash mid-handling: the filter owns the duplicate
            # and is being abandoned — account the strand.
            self.pml.strand(env)
            raise
        self.pml.fabric.release_frame(env)
        return False

    def _on_duplicate(self, env: Frame) -> Generator:
        """Default duplicate handling (*env* is a borrow — the filter
        releases it when this returns).

        A duplicate RTS must still be answered with a CTS so the sender's
        rendezvous request can complete; the DATA frame then finds no
        pending receive and is dropped by the PML.
        """
        if env.kind == "rts":
            pml = self.pml
            yield from pml.inject(pml.cts_for(env))

    # ---------------------------------------------------------- replica math
    def pair_of(self, rank: int) -> int:
        """My same-index replica of *rank* (the parallel-protocol partner)."""
        return self.rmap.phys(rank, self.rep)

    # -------------------------------------------------------------- failures
    def _svc_failure(self, failed: int) -> Generator:
        """Failure-notification entry point; protocols override on_failure."""
        yield from self.on_failure(failed)

    def on_failure(self, failed: int) -> Generator:
        yield from ()

    # ------------------------------------------------------------- suspicion
    def _svc_suspect(self, suspect: int) -> Generator:
        self.suspicions_seen += 1
        yield from self.on_suspicion(suspect)

    def _svc_clear(self, suspect: int) -> Generator:
        self.suspicion_clears_seen += 1
        yield from self.on_suspicion_cleared(suspect)

    def on_suspicion(self, suspect: int) -> Generator:
        """An imperfect detector reported *suspect* — which may be alive.

        The default is advisory (count, change nothing): correctness never
        depends on suspicion, only on the definitive failure notification.
        Protocols with per-message retention (SDR, leader) override this to
        fail over speculatively — and must implement the reversal in
        :meth:`on_suspicion_cleared`.  Mirror/redMPI have no retention to
        replay from, so reacting would wedge a false positive; they stay
        advisory by design.
        """
        yield from ()

    def on_suspicion_cleared(self, suspect: int) -> Generator:
        yield from ()

    def file_io(self, vfs: VirtualFileSystem) -> ReplicatedIo:
        return ReplicatedIo(vfs, self)

    # --------------------------------------------------------------- teardown
    def reap(self) -> int:
        """End-of-run teardown: release messages parked in the reorder
        buffers.  Returns how many were reaped (strand attribution:
        the ``reorder_reap`` site in ``JobResult.stranded_by_site``).

        On a crash-free run the buffers drain naturally (every gap fills).
        After a fail-stop, gaps can persist forever — the peer that would
        have sent the missing sequence number is dead, or this very
        process crashed with early arrivals parked — and the buffered
        messages are well-defined leftovers the arena-balance check reaps,
        exactly like the PML's unexpected queue.
        """
        reorder = self._reorder
        if not reorder:
            return 0
        reaped = 0
        release = self.pml.fabric.release_frame
        for held in reorder.values():
            for env in held.values():
                release(env)
            reaped += len(held)
            held.clear()
        return reaped

    def stats(self) -> dict:
        base = super().stats()
        base["duplicates_dropped"] = self.duplicates_dropped
        base["suspicions_seen"] = self.suspicions_seen
        base["suspicion_clears_seen"] = self.suspicion_clears_seen
        return base
