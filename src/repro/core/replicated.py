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

from typing import Any, Dict, Generator, List, Optional

from repro.core.config import ReplicationConfig
from repro.core.interpose import BaseProtocol
from repro.core.membership import MembershipService
from repro.core.worlds import ReplicaMap
from repro.mpi.pml import CTS_BYTES, Envelope, Pml

__all__ = ["ReplicatedBase", "ProtocolShared"]


class ProtocolShared:
    """Job-wide read-only flyweight of the replica stacks' common state.

    Every replicated protocol instance used to re-derive (and hold) the
    same handful of values: the replica map, membership service, config
    object, the cfg cost knobs it cached for its hot paths, and the
    replica-major base offsets its send/ack fan-outs recompute per message.
    None of that is per-process — it is immutable after job setup — so one
    instance per :class:`~repro.harness.runner.Job` is built and every
    stack references it; the protocol instances keep only their mutable
    residue (cursors, retention, counters) in ``__slots__``.
    """

    __slots__ = (
        "rmap",
        "membership",
        "cfg",
        "n_ranks",
        "degree",
        "rep_bases",
        "ack_bytes",
        "hash_bytes",
        "ack_post_overhead",
        "ack_handle_overhead",
    )

    def __init__(self, rmap: ReplicaMap, membership: MembershipService, cfg: ReplicationConfig) -> None:
        self.rmap = rmap
        self.membership = membership
        self.cfg = cfg
        self.n_ranks = rmap.n_ranks
        self.degree = rmap.degree
        #: replica-major base offset per replica index: phys(rank, rep) ==
        #: rep_bases[rep] + rank — the arithmetic table the fan-out loops use
        self.rep_bases = tuple(rep * rmap.n_ranks for rep in range(rmap.degree))
        self.ack_bytes = cfg.ack_bytes
        self.hash_bytes = cfg.hash_bytes
        self.ack_post_overhead = cfg.ack_post_overhead
        self.ack_handle_overhead = cfg.ack_handle_overhead

    def rebound(self, membership: MembershipService) -> "ProtocolShared":
        """Per-job copy bound to a fresh membership service.

        Everything else — rmap, cfg, the rep_bases tuple, the cost knobs —
        is immutable and shared *by reference*, so a sweep's shape cache
        can hand one template to every same-shape job and pay only this
        O(1) rebinding per job instead of re-deriving the table.
        """
        new = ProtocolShared.__new__(ProtocolShared)
        for slot in ProtocolShared.__slots__:
            setattr(new, slot, getattr(self, slot))
        new.membership = membership
        return new


class ReplicatedBase(BaseProtocol):
    """Replica-aware protocol base: dedup + reorder + failure plumbing."""

    name = "replicated"

    __slots__ = (
        "shared",
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
        shared: ProtocolShared,
    ) -> None:
        rank = rmap.rank_of(pml.proc)
        super().__init__(pml, world_rank=rank)
        self.shared = shared
        # Hot aliases (the same objects the shared table references).
        self.rmap = rmap
        self.membership = membership
        self.cfg = cfg
        self.rank = rank
        self.rep = rmap.rep_of(pml.proc)
        #: next expected seq per sending logical rank (receive-side cursor)
        self._expected: Dict[int, int] = {}
        #: early arrivals per sending logical rank: seq -> envelope;
        #: lazy — crash-free single-channel traffic never reorders
        self._reorder: Optional[Dict[int, Dict[int, Envelope]]] = None
        self.duplicates_dropped = 0
        self.suspicions_seen = 0
        self.suspicion_clears_seen = 0
        pml.incoming_filter = self._filter_incoming
        pml.svc_handlers["failure"] = self._svc_failure
        pml.svc_handlers["suspect"] = self._svc_suspect
        pml.svc_handlers["clear"] = self._svc_clear

    # --------------------------------------------------------- receive side
    def _filter_incoming(self, env: Envelope) -> Generator[Any, Any, bool]:
        """Release application envelopes to matching in per-channel order.

        Always returns False: delivery (if any) is performed here so that
        held-back successors can be flushed in the right order.  Ownership
        contract: the PML hands this filter the envelope; every path below
        accounts for it — in-order and flushed envelopes are consumed by
        ``deliver_to_matching``, early arrivals are *owned by the reorder
        buffer* until flushed, and duplicates are returned to the arena
        once :meth:`_on_duplicate` has finished with the borrow.
        """
        src = env.world_src
        expected = self._expected.get(src, 0)
        if env.seq == expected:
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
        if env.seq > expected:
            reorder = self._reorder
            if reorder is None:
                reorder = self._reorder = {}
            reorder.setdefault(src, {})[env.seq] = env
            return False
        # Duplicate: mirror copy, substitute resend, or recovery replay.
        self.duplicates_dropped += 1
        try:
            yield from self._on_duplicate(env)
        except BaseException:
            # Fail-stop crash mid-handling: the filter owns the duplicate
            # and is being abandoned — account the strand.
            self.pml.strand_env(env)
            raise
        self.pml.release_env(env)
        return False

    def _on_duplicate(self, env: Envelope) -> Generator:
        """Default duplicate handling (*env* is a borrow — the filter
        releases it when this returns).

        A duplicate RTS must still be answered with a CTS so the sender's
        rendezvous request can complete; the DATA frame then finds no
        pending receive and is dropped by the PML.
        """
        if env.kind == "rts":
            pml = self.pml
            cts = pml.acquire_env(
                "cts", env.ctx, -1, -1, -1, -1, env.seq, CTS_BYTES, None, env.src_phys, msg_id=env.msg_id
            )
            yield from pml.inject(cts, CTS_BYTES)

    # ---------------------------------------------------------- replica math
    def alive_replicas_of(self, rank: int) -> List[int]:
        return self.membership.alive_replicas(rank)

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

    # --------------------------------------------------------------- teardown
    def reap(self) -> int:
        """End-of-run teardown: release envelopes parked in the reorder
        buffers.  Returns how many were reaped (strand attribution:
        the ``reorder_reap`` site in ``JobResult.stranded_by_site``).

        On a crash-free run the buffers drain naturally (every gap fills).
        After a fail-stop, gaps can persist forever — the peer that would
        have sent the missing sequence number is dead, or this very
        process crashed with early arrivals parked — and the buffered
        envelopes are well-defined leftovers the arena-balance check reaps,
        exactly like the PML's unexpected queue.
        """
        reorder = self._reorder
        if not reorder:
            return 0
        reaped = 0
        for held in reorder.values():
            for env in held.values():
                self.pml.release_env(env)
            reaped += len(held)
            held.clear()
        return reaped

    def stats(self) -> dict:
        base = super().stats()
        base["duplicates_dropped"] = self.duplicates_dropped
        base["suspicions_seen"] = self.suspicions_seen
        base["suspicion_clears_seen"] = self.suspicion_clears_seen
        return base
