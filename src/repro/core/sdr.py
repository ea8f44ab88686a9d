"""SDR-MPI: the paper's send-deterministic parallel replication protocol.

Protocol summary (§3.2, Algorithm 1):

* **Parallel sends** — replica *k* of rank *i* sends each application
  message only to replica *k* of the destination rank (``physicalDests``).
  That default is arithmetic (``rep_base + rank``), so ``physical_dests``
  stores only the *exceptions* failover and recovery write.
* **Receiver-side acks** — when a message is fully received at the library
  level (``pml_recv_complete``), the receiver sends an ack to every *other*
  alive replica of the sending rank.  Acking at ``irecvComplete`` rather
  than at application-level completion is what breaks the
  Irecv/Send/Wait deadlock (§3.3).
* **Gated send completion** — a send request completes only when its
  library-level sends are done *and* acks from all other alive replicas of
  the destination rank have been collected (``MPI_Wait`` lines 12-14).
* **Retention** — the payload of every message still missing acks is
  retained; if a replica of my own rank fails and I am elected substitute,
  I transmit the retained messages its receivers never got (lines 18-27)
  and take over its send duties.
* **No leader** — anonymous receptions (``MPI_ANY_SOURCE``) are resolved
  locally on each replica; send-determinism guarantees the externally
  visible behaviour cannot diverge (§3.1, Fig. 2).

Differences from Algorithm 1, all behaviour-preserving:

* acks are handled through a table keyed by (destination rank, sequence
  number) instead of posting one ``irecv`` per expected ack — arithmetic
  instead of request objects, same completion condition;
* acks that arrive before their send is posted (the other replica pair
  running ahead) are parked in an early-ack table;
* duplicate suppression + per-channel in-order release (see
  :class:`repro.core.replicated.ReplicatedBase`) make failover and recovery
  hand-offs idempotent.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, Set, Tuple

from repro.core.config import ReplicationConfig
from repro.core.interpose import SendHandle, RecvHandle
from repro.core.membership import MembershipService
from repro.core.replicated import ReplicatedBase
from repro.core.worlds import ReplicaMap
from repro.mpi.datatypes import copy_payload, nbytes_of
from repro.mpi.pml import Pml, PmlRecvRequest
from repro.network.fabric import Frame

__all__ = ["SdrProtocol", "SdrSendHandle"]

#: ctrl key for acknowledgement frames
ACK = "sdr.ack"
#: ctrl key for recovery notifications (§3.4)
RECOVERED = "sdr.recovered"


class SdrSendHandle(SendHandle):
    """Send handle retaining what a substitute resend needs."""

    __slots__ = ("ctx", "src_rank", "tag")

    def __init__(
        self,
        world_dst: int,
        seq: int,
        ctx: Any,
        src_rank: int,
        tag: int,
        payload: Any,
        nbytes: Optional[int] = None,
    ) -> None:
        super().__init__(
            [], world_dst, seq, payload=payload, nbytes=nbytes_of(payload) if nbytes is None else nbytes
        )
        self.ctx = ctx
        self.src_rank = src_rank
        self.tag = tag


class SdrProtocol(ReplicatedBase):
    """Per-physical-process SDR-MPI state machine.

    Per-instance state is the slotted mutable residue of the protocol —
    send cursors, retention, failover scratch — while the replica
    arithmetic and the cost knobs are read from the job's ``rmap`` and
    ``cfg``, which every stack shares.  The failover scratch
    (``substitute``, ``_early_acks``) is lazy: a crash-free run never
    materializes it.
    """

    name = "sdr"

    CTRL_HANDLERS = {ACK: "_on_ack", RECOVERED: "_on_recovered"}

    __slots__ = (
        "physical_dests",
        "_seq_floor",
        "_substitute",
        "retention",
        "_early_acks",
        "recovery_hook",
        "acks_sent",
        "acks_received",
        "resends",
        "failovers_handled",
        "_suspended",
        "speculative_failovers",
    )

    def __init__(
        self,
        pml: Pml,
        rmap: ReplicaMap,
        membership: MembershipService,
        cfg: ReplicationConfig,
    ) -> None:
        super().__init__(pml, rmap, membership, cfg)
        #: physicalDests_p[rank]: replicas of `rank` I send application
        #: messages to (Algorithm 1 line 1) — *exceptions only*.  An absent
        #: entry means "my pair, alive at my first send"; see :meth:`dests_for`.
        self.physical_dests: Dict[int, List[int]] = {}
        #: send cursors a respawned replica inherited from its substitute
        #: (:meth:`adopt_state`): where *its own* sends start counting
        self._seq_floor: Optional[Dict[int, int]] = None
        #: substitute_p[rep] (line 3) storage, materialized on first use —
        #: identity until a failover rewrites it (see the property).
        self._substitute: Optional[Dict[int, int]] = None
        #: messages awaiting acks: (world_dst, seq) -> handle
        self.retention: Dict[Tuple[int, int], SdrSendHandle] = {}
        #: acks that arrived before their send was posted (lazy: only the
        #: replica pair running behind ever parks one)
        self._early_acks: Optional[Dict[Tuple[int, int], Set[int]]] = None
        #: recovery manager callback (installed by the harness when enabled)
        self.recovery_hook = None
        #: per-suspect reversal state for speculative failovers (lazy — a
        #: run without false suspicions never materializes it); see
        #: :meth:`on_suspicion`
        self._suspended: Optional[Dict[int, dict]] = None
        # metrics
        self.acks_sent = 0
        self.acks_received = 0
        self.resends = 0
        self.failovers_handled = 0
        self.speculative_failovers = 0
        pml.on_recv_complete.append(self._ack_on_recv_complete)

    @property
    def substitute(self) -> Dict[int, int]:
        """substitute_p[rep]: who sends on behalf of each replica of MY
        rank — identity until a failover, so the per-proc dict is built on
        first access rather than for all 8192+ stacks up front."""
        sub = self._substitute
        if sub is None:
            sub = self._substitute = {rep: rep for rep in range(self.rmap.degree)}
        return sub

    # ----------------------------------------------------------- destinations
    def dests_for(self, world_dst: int) -> List[int]:
        """physicalDests_p[world_dst] as a stored, mutable list (cold paths).

        A crash-free run never calls this: :meth:`app_isend` routes an
        absent entry to my pair by arithmetic.  Whoever must *read or
        rewrite* the entry — failover, suspicion, recovery — materializes
        here exactly what eager memoization at first use would hold.
        Absence means "my pair, sampled alive at my first send" (a send
        that finds the pair dead comes here before it counts), so once I
        have sent, the pair is listed even if it has died since — its
        failure notification removes it, and only ``RECOVERED`` re-admits
        it: a respawned replica is sent nothing before its peers replayed
        what its forked state lacks.  Never sent: sampled now.
        """
        dests = self.physical_dests.get(world_dst)
        if dests is None:
            pair = self.pair_of(world_dst)
            # my own sends: a respawned replica's inherited cursor is its zero
            floor = self._seq_floor
            sent = self._send_seq.get(world_dst, 0) > (floor.get(world_dst, 0) if floor else 0)
            dests = self.physical_dests[world_dst] = (
                [pair] if sent or self.membership.is_alive(pair) else []
            )
        return dests

    # ------------------------------------------------------------------ send
    def app_isend(
        self, ctx, src_rank, tag, data, world_dst, synchronous=False
    ) -> Generator[Any, Any, SdrSendHandle]:
        self.app_sends += 1
        pml = self.pml
        endpoints = pml.fabric.endpoints
        rep_bases = self.rmap.rep_bases
        # physicalDests: a stored exception or, absent one (every send of a
        # crash-free run), my pair by arithmetic.  A dead pair materializes
        # the entry *before* this send counts as sent, so a first send
        # samples it dead exactly as dests_for specifies.
        pair = rep_bases[self.rep] + world_dst
        dests = self.physical_dests.get(world_dst)
        if dests is None and not endpoints[pair].alive:
            dests = self.dests_for(world_dst)
        seq = self.next_seq(world_dst)
        payload = copy_payload(data)
        nbytes = nbytes_of(payload)
        handle = SdrSendHandle(world_dst, seq, ctx, src_rank, tag, payload, nbytes=nbytes)
        # Algorithm 1 lines 5-9, in replica-index order: transmit to my
        # physicalDests, post an expected-ack receive for every other alive
        # replica of the destination rank.  Posting the ack receive costs
        # CPU (request management) — a real, measurable part of the
        # protocol's small-message overhead.
        ack_post = self.cfg.ack_post_overhead
        for base in rep_bases:
            ph = base + world_dst  # rmap.phys, replica-major
            if ph == pair if dests is None else ph in dests:
                if not endpoints[ph].alive:
                    continue
                # charge-then-post split of pml.isend (hot: one per
                # application message per destination replica)
                overhead = pml.send_cost(ph)
                if overhead > 0.0:
                    yield overhead
                handle.pml_reqs.append(
                    pml.post_send(
                        ctx, src_rank, tag, payload, self.rank, world_dst, seq, ph, nbytes, synchronous
                    )
                )
            elif endpoints[ph].alive:
                handle.needs_ack.add(ph)
                if ack_post > 0:
                    yield ack_post
        suspended = self._suspended
        if suspended and handle.needs_ack:
            self._forgive_suspects(handle, suspended)
        early_acks = self._early_acks
        early = early_acks.pop((world_dst, seq), None) if early_acks else None
        if early:
            handle.needs_ack -= early
        if handle.needs_ack:
            self.retention[(world_dst, seq)] = handle
        return handle

    def _forgive_suspects(self, handle: SdrSendHandle, suspended: Dict[int, dict]) -> None:
        """A suspected replica cannot be waited on: drop it from the ack
        gate so sends complete, and — when the suspect would have been my
        pairwise destination — park the handle for replay at clear time
        (the suspect missed the physical copy my pair-send would have
        carried).  Suspects of other replica indices get the message from
        their own pair once its backlog replays; only the forgiveness is
        needed there."""
        n_ranks = self.rmap.n_ranks
        for s in list(handle.needs_ack):
            snap = suspended.get(s)
            if snap is None:
                continue
            handle.needs_ack.discard(s)
            if s // n_ranks == self.rep:  # rmap.rep_of, replica-major
                snap["backlog"].append(handle)

    # ------------------------------------------------------------------ recv
    def app_irecv(self, ctx, source, tag, buf=None) -> Generator[Any, Any, RecvHandle]:
        self.app_recvs += 1
        req = yield from self.pml.irecv(ctx=ctx, source=source, tag=tag, buf=buf)
        return RecvHandle(req)

    # ------------------------------------------------------------------ acks
    def _ack_on_recv_complete(self, env: Frame, recv: Optional[PmlRecvRequest]) -> Generator:
        """Algorithm 1 lines 15-17: on irecvComplete, ack the other senders.

        Also the duplicate re-ack (:meth:`_on_duplicate`, with no
        request).  *env* is a borrow (see :mod:`repro.core.interpose`):
        every field the acks need is read while the hook runs; nothing
        retains the envelope.
        """
        rmap = self.rmap
        sender_rep = env.src // rmap.n_ranks  # rmap.rep_of, unchecked
        pml = self.pml
        endpoints = pml.fabric.endpoints
        send_row = pml._send_row
        node_of = pml._node_of
        src_rank = env.world_src
        seq = env.seq
        ack_bytes = self.cfg.ack_bytes
        for rep, base in enumerate(rmap.rep_bases):
            if rep == sender_rep:
                continue
            ph = base + src_rank  # rmap.phys, replica-major
            if endpoints[ph].alive:
                self.acks_sent += 1
                # pml.send_cost inlined: one row probe per ack sent
                cost = send_row.get(node_of[ph])
                if cost is None:
                    cost = pml._send_cost_to(ph)
                if cost[0] > 0.0:
                    yield cost[0]
                pml.inject_ctrl(ph, ACK, (self.rank, seq), ack_bytes)

    def _on_duplicate(self, env: Frame) -> Generator:
        # Re-ack so a substitute that resent (its ack was in flight at
        # failover time) can still clear its retention.
        yield from super()._on_duplicate(env)
        yield from self._ack_on_recv_complete(env, None)

    def _on_ack(self, env: Frame) -> Generator:
        # ctrl borrow: (world_dst, seq) is unpacked out of the envelope
        # up front; the PML recycles it when this generator finishes.
        world_dst, seq = env.data
        self.acks_received += 1
        overhead = self.cfg.ack_handle_overhead
        if overhead > 0:
            yield overhead
        handle = self.retention.get((world_dst, seq))
        if handle is not None:
            handle.needs_ack.discard(env.src)
            if not handle.needs_ack:
                del self.retention[(world_dst, seq)]
        elif seq >= self._send_seq.get(world_dst, 0):
            # The other replica pair ran ahead: park the ack.
            early_acks = self._early_acks
            if early_acks is None:
                early_acks = self._early_acks = {}
            early_acks.setdefault((world_dst, seq), set()).add(env.src)
        # else: late ack for a fully-acked message (after a re-ack) — drop.
        yield from ()

    # -------------------------------------------------------------- failures
    def _resend(self, handle: SdrSendHandle, world_dst: int, seq: int, dst_phys: int) -> Generator:
        """Transmit a retained message to *dst_phys* (failover, cleared
        suspicion, recovery): the new request joins the handle's own."""
        self.resends += 1
        req = yield from self.pml.isend(
            ctx=handle.ctx,
            src_rank=handle.src_rank,
            tag=handle.tag,
            data=handle.payload,
            world_src=self.rank,
            world_dst=world_dst,
            seq=seq,
            dst_phys=dst_phys,
            already_copied=True,
        )
        handle.pml_reqs.append(req)

    def on_failure(self, failed: int) -> Generator:
        """Algorithm 1 lines 18-35."""
        rank_f = self.rmap.rank_of(failed)
        rep_f = self.rmap.rep_of(failed)
        self.failovers_handled += 1
        sub = self.membership.substitute_rep(rank_f)  # line 19
        if sub is None:
            # All replicas of rank_f are gone; the application is lost.
            # The harness surfaces this; nothing a protocol can do (§1:
            # this is when you fall back to checkpoint restart).
            return
        if self.rank == rank_f:
            covered = [rep_l for rep_l, s in self.substitute.items() if s == rep_f]
            if sub == self.rep:
                # Lines 21-25: I am the substitute — adopt the bereaved
                # receivers and resend whatever they are missing.
                for rep_l in covered:
                    for j in range(self.rmap.n_ranks):
                        ph = self.rmap.phys(j, rep_l)
                        if ph == self.pml.proc or not self.membership.is_alive(ph):
                            continue
                        dests = self.dests_for(j)
                        if ph not in dests:
                            dests.append(ph)
                    for (j, seq), handle in list(self.retention.items()):
                        ph = self.rmap.phys(j, rep_l)
                        if ph in handle.needs_ack and self.membership.is_alive(ph):
                            handle.needs_ack.discard(ph)
                            yield from self._resend(handle, j, seq, ph)
                            if not handle.needs_ack:
                                del self.retention[(j, seq)]
            # Lines 26-27: whoever was covered by the failed replica is now
            # covered by the substitute (every replica of rank_f tracks this).
            for rep_l in covered:
                self.substitute[rep_l] = sub
        else:
            # Lines 28-35: a replica of another rank.  Line 30 (physicalSrc)
            # is implicit: matching is keyed on logical ranks.
            dests = self.dests_for(rank_f)
            if failed in dests:
                dests.remove(failed)  # stop sending to the dead replica (Fig. 3)
            self.pml.cancel_sends_to(failed)  # line 32
            # Line 33: cancel ack expectations from the dead process.
            for (j, seq), handle in list(self.retention.items()):
                if failed in handle.needs_ack:
                    handle.needs_ack.discard(failed)
                    if not handle.needs_ack:
                        del self.retention[(j, seq)]
            # Lines 34-35 (retargeting posted receives) are implicit:
            # matching is keyed on logical ranks, so the substitute's
            # messages match the already-posted receive requests.

    # ------------------------------------------------------------- suspicion
    def on_suspicion(self, suspect: int) -> Generator:
        """Speculative failover: treat a suspected-but-alive replica as
        failed *reversibly*.

        The full Algorithm 1 failover runs (substitute adoption, retained
        resends, ack forgiveness) so the job keeps progressing at detection
        speed — but everything needed to hand the suspect its missed
        traffic back is snapshotted first: which coverage the substitute
        map held, whether the suspect was my pairwise destination, and
        every retained handle whose physical copy the suspect will miss.
        :meth:`on_suspicion_cleared` replays from that snapshot; the
        per-channel dedup filter absorbs anything the suspect did receive.
        """
        if suspect == self.pml.proc or not self.membership.is_alive(suspect):
            yield from ()
            return
        suspended = self._suspended
        if suspended is None:
            suspended = self._suspended = {}
        if suspect in suspended:
            return
        rank_f = self.rmap.rank_of(suspect)
        rep_f = self.rmap.rep_of(suspect)
        snap: dict = {
            "backlog": [],
            "covered": [],
            "sub": rep_f,
            "had_in_dests": False,
        }
        if self.rank == rank_f:
            snap["covered"] = [rep_l for rep_l, s in self.substitute.items() if s == rep_f]
        else:
            snap["had_in_dests"] = suspect in self.dests_for(rank_f)
            if rep_f == self.rep:
                # The suspect is my pairwise destination: every message to
                # its rank that is still retained may have been cancelled
                # mid-flight by the failover below — park them all, the
                # suspect's dedup filter drops the ones it already has.
                for (j, _seq), handle in list(self.retention.items()):
                    if j == rank_f:
                        snap["backlog"].append(handle)
        suspended[suspect] = snap
        self.speculative_failovers += 1
        yield from self.on_failure(suspect)
        if self.rank == rank_f:
            snap["sub"] = self.substitute.get(rep_f, rep_f)

    def on_suspicion_cleared(self, suspect: int) -> Generator:
        """Reverse a speculative failover: the suspect was alive all along.

        Restores the substitute identity (handing adopted receivers back),
        resumes the pairwise send pattern, and replays — in sequence order
        — every parked handle the suspect missed while it was written off.
        """
        suspended = self._suspended
        snap = suspended.pop(suspect, None) if suspended else None
        if snap is None:
            yield from ()
            return
        if not self.membership.is_alive(suspect):
            return  # died while suspected: the definitive failure path governs
        rank_f = self.rmap.rank_of(suspect)
        rep_f = self.rmap.rep_of(suspect)
        if self.rank == rank_f:
            sub = snap["sub"]
            restored = False
            for rep_l in snap["covered"]:
                if self.substitute.get(rep_l) == sub:
                    self.substitute[rep_l] = rep_f
                    restored = True
            if restored and sub == self.rep and sub != rep_f:
                # I adopted the suspect's receivers speculatively (lines
                # 21-25) — hand them back, exactly as after a recovery.
                for j in range(self.rmap.n_ranks):
                    dests = self.physical_dests.get(j)  # absent: nothing adopted
                    if not dests:
                        continue
                    my_pair = self.rmap.phys(j, self.rep)
                    for rep_l in snap["covered"]:
                        ph = self.rmap.phys(j, rep_l)
                        if ph in dests and ph != my_pair:
                            dests.remove(ph)
            return
        # Peer of another rank: resume the pairwise pattern...
        if snap["had_in_dests"]:
            dests = self.dests_for(rank_f)
            if suspect not in dests:
                dests.append(suspect)
        # ... and replay what the suspect missed, in send order (its
        # in-order filter dedups whatever did get through before the
        # speculative cancel).
        for handle in snap["backlog"]:
            yield from self._resend(handle, handle.world_dst, handle.seq, suspect)

    # -------------------------------------------------------------- recovery
    def recovery_point(self) -> Generator:
        """Application-declared safe point for a pending respawn (§3.4).

        The harness's :class:`~repro.core.recovery.RecoveryManager` installs
        ``recovery_hook``; if this process is the substitute for a rank with
        a pending respawn, the fork + notification broadcast happen here.
        """
        if self.recovery_hook is not None:
            yield from self.recovery_hook(self)
        else:
            yield from ()

    def broadcast_recovery(self, new_proc: int, rep_f: int) -> Generator:
        """Substitute side of §3.4: notify every alive process over the
        regular FIFO channels, then stop sending on the dead replica's
        behalf (its duties move to the respawned process)."""
        for p, ep in enumerate(self.pml.fabric.endpoints):
            if p != self.pml.proc and ep.alive:
                yield from self.pml.send_ctrl(p, RECOVERED, (self.rank, new_proc, rep_f))
        self.substitute[rep_f] = rep_f
        for j in range(self.rmap.n_ranks):
            dests = self.physical_dests.get(j)  # absent: nothing adopted
            ph = self.rmap.phys(j, rep_f)
            if dests and ph in dests and ph != self.rmap.phys(j, self.rep):
                dests.remove(ph)

    def _on_recovered(self, env: Frame) -> Generator:
        """Peer side of §3.4: resume the pairwise pattern toward the new
        replica and replay everything the substitute has not acked."""
        rank_f, new_proc, rep_f = env.data
        if self.rank == rank_f:
            self.substitute[rep_f] = rep_f
            return
        dests = self.dests_for(rank_f)
        if self.rep == rep_f and new_proc not in dests:
            dests.append(new_proc)
        # Messages to rank_f not yet acked by the substitute existed before
        # the fork (FIFO channels order the sub's acks against its
        # notification), so the new replica's cloned state lacks them.
        if self.rep == rep_f:
            sub_phys = env.src  # the notification sender IS the substitute
            for (j, seq), handle in list(self.retention.items()):
                if j != rank_f:
                    continue
                if sub_phys in handle.needs_ack:
                    # Not yet acked by the substitute at notification time
                    # (FIFO: the sub's acks for anything it received before
                    # the fork arrive before this notification), so the
                    # clone is missing it: transmit directly.
                    yield from self._resend(handle, j, seq, new_proc)
                # Either way the new replica owes us no ack: we have now
                # transmitted to it ourselves, or its cloned state already
                # contains the message (receivers never ack the physical
                # process they got the message from).
                handle.needs_ack.discard(new_proc)
                if not handle.needs_ack:
                    del self.retention[(j, seq)]

    # ----------------------------------------------------------------- state
    def clone_state_for_respawn(self) -> dict:
        """Protocol state a forked replica inherits from the substitute."""
        return {
            "expected": dict(self._expected),
            "send_seq": dict(self._send_seq),
            "retention": {
                key: (h.ctx, h.src_rank, h.tag, h.payload, set(h.needs_ack))
                for key, h in self.retention.items()
            },
        }

    def adopt_state(self, state: dict) -> None:
        """Install forked state on a freshly respawned replica."""
        self._expected = dict(state["expected"])
        self._seq_floor = state["send_seq"]
        self._send_seq = dict(self._seq_floor)
        for (j, seq), (ctx, src_rank, tag, payload, needs) in state["retention"].items():
            handle = SdrSendHandle(j, seq, ctx, src_rank, tag, payload)
            handle.needs_ack = set(needs)
            self.retention[(j, seq)] = handle

    def stats(self) -> dict:
        base = super().stats()
        base.update(
            acks_sent=self.acks_sent,
            acks_received=self.acks_received,
            resends=self.resends,
            retained=len(self.retention),
            failovers_handled=self.failovers_handled,
            speculative_failovers=self.speculative_failovers,
        )
        return base
