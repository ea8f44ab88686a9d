"""Conservative sharded-parallel execution (Chandy–Misra–Bryant lookahead).

One :class:`~repro.harness.runner.Job` normally runs on one core.  This
module shards its simulated processes **by logical-rank range** (whole
nodes, every replica of a rank together — see :class:`ShardPlan`) across
the fork workers of a :class:`~repro.sim.pool.Pool` and synchronizes the
per-shard :class:`Simulator` instances on conservative lookahead windows,
exploiting two facts the paper's system model fixes:

* topology and the cost model are immutable after setup, so the minimum
  inter-node wire latency ``L`` is a compile-time constant of the
  placement — any frame injected at time ``t`` toward another node
  arrives no earlier than ``t + L``;
* frames are only examined inside MPI calls (§3.3 no-async-progress), so
  deferring a cross-node delivery's *pricing* to a synchronization
  barrier is unobservable as long as the arrival still lands in time.

The window protocol (one parent round-trip per window)::

    barrier k:  T = min over shards of next-event time  (lower-bounded by
                the previous horizon when relayed frames are in flight)
    window k:   every shard dispatches events in [_, T + L) concurrently;
                inter-node injects are uplink-priced locally and *deferred*
                (:attr:`Fabric.deferred`), never delivered directly
    barrier k+1: deferred frames are routed to the shard owning the
                destination node, merged in **canonical order**
                ``(inject_time, src_shard, per-shard seq)``, downlink-priced
                (:meth:`Fabric.price_downlink` — FIFO clamp intact) and
                scheduled; every arrival provably lands at ``>= T + L``,
                strictly after anything the window already dispatched.

Determinism is the contract, not a best effort: the serial engine stays
the executable spec, and the merged run must reproduce its per-run
fingerprint byte-for-byte.  Every feature whose serial behaviour depends
on *global* event interleaving that a shard cannot reconstruct — jitter
draws, stochastic fault draws (drop/dup), the imperfect detector's rng
stream, respawn recovery, a protocol whose sends fan out across replica
sets — is a **hazard**: :func:`classify_hazards` detects them statically
and the job falls back to the serial path, before any fork, with the
reasons recorded in ``JobResult.parallel["fallback"]``.  Delay-only
and partition fault windows draw no rng and stay shardable.  Wildcard
(``ANY_SOURCE``) receives and probes are no hazard: MPI matching is a pure
function of each endpoint's arrival order and posting order, and the
barrier merge either reproduces the serial arrival order at every endpoint
or taints on the tie it cannot order (:class:`_ShardTaint`).

Crash schedules are replayed in *every* shard (endpoint liveness and
membership bookkeeping must agree globally); the membership oracle's
notification fan-out is filtered per shard (``MembershipService.local_procs``)
so each svc delivery fires exactly once, and the runner counts fired
crash callbacks so the merged ``events_dispatched`` can subtract the
``n_shards - 1`` duplicate dispatches per crash.

A sharded run ends the serial way: each worker closes its own processes
with :meth:`Job._close` and sends that part, and :func:`_merge_results`
hands the parts to :meth:`JobResult.merge` — the serial run's one builder
and raise sites — after the checks only shards need.  Zero-leak accounting
crosses the relay: an exported frame leaves its shard's custody
(``frames_exported``), an imported one enters as a fresh acquire
(``frames_imported``); each shard's audit proves the extended balance and
the parent re-derives the global one (exports == imports, merged
``acquired - imported`` equals the serial acquire count).

A worker that *dies* (killed, or raising outside the simulation) is
neither a hazard nor a taint: :class:`~repro.sim.pool.WorkerDied` names
the shard and leaves ``Job.run``.  Fingerprints exclude ``parallel``, so a
serial rerun would hide the machinery bug from every equivalence test.
"""

from __future__ import annotations

import gc
import multiprocessing as mp
import pickle
import traceback
from bisect import bisect_left
from dataclasses import dataclass, fields
from heapq import heappush
from typing import Any, Dict, List, Optional, Tuple

from repro.sim.pool import Pool

__all__ = [
    "ParallelConfig",
    "ShardPlan",
    "classify_hazards",
    "fingerprint",
    "run_parallel",
]


#: Observables that describe memory policy or the sharding machinery, not
#: the simulated execution, and are legitimately engine-dependent: each
#: shard owns a private frame pool (high-water/pool/allocated differ), and
#: the relay counters are zero by construction on the serial engine.
_FINGERPRINT_EXCLUDED_FABRIC = frozenset(
    {
        "frame_high_water",
        "frame_pool_size",
        "frames_allocated",
        "frames_exported",
        "frames_imported",
    }
)


def fingerprint(result) -> dict:
    """Canonical engine-equivalence fingerprint of a ``JobResult``.

    Every simulation-visible observable — runtime, per-proc finish times
    and app results, protocol stats, dispatched-event count, frame/byte
    totals, arena balances, strand attribution, traffic admission — keyed
    exactly; the serial and sharded engines must produce byte-identical
    fingerprints for the same job (the hypothesis equivalence suite
    enforces it).  Memory-policy and machinery counters are excluded, see
    ``_FINGERPRINT_EXCLUDED_FABRIC``.
    """
    out: Dict[str, Any] = {}
    for field in fields(result):
        if field.name == "parallel":
            continue
        value = getattr(result, field.name)
        if field.name == "fabric":
            value = {k: v for k, v in value.items() if k not in _FINGERPRINT_EXCLUDED_FABRIC}
        out[field.name] = value
    return out


@dataclass(frozen=True)
class ParallelConfig:
    """Opt-in multi-core execution for one Job.

    *workers* is the requested worker-process count; the planner never
    creates more shards than there are populated nodes (a node's procs
    share uplink/downlink pricing cells and must stay together).
    """

    workers: int = 2

    def __post_init__(self) -> None:
        if not isinstance(self.workers, int) or isinstance(self.workers, bool) or self.workers < 1:
            raise ValueError(f"workers must be an int >= 1, got {self.workers!r}")


@dataclass(frozen=True)
class ShardPlan:
    """Immutable node → shard partition plus the derived lookahead.

    Shards are whole nodes cut by **logical-rank range**: the populated
    nodes are ordered by the lowest logical rank they host (ties by node
    id) and that order is cut into chunks balanced by process count.  The
    heaviest edge of a replicated protocol runs between the replicas of
    one rank (every SDR application message is acked to the sender's
    other replica), and the paper's split-halves placement puts the
    replica sets on disjoint node halves — so under this order the nodes
    hosting one rank range are neighbours, a cut keeps all their replicas
    in one shard (exactly, when the shard count divides the nodes per
    replica set; otherwise each cut straddles at most one rank range),
    acks stay off the relay, and every shard holds the leading *and* the
    lagging replica set, so the shards are busy in the same windows.
    Unreplicated jobs host each rank once: the order is node order.
    ``lookahead`` is the inter-node wire latency — the homogeneous
    :class:`~repro.network.topology.Cluster` prices every pair of distinct
    nodes with one model, so it is the minimum over populated node pairs
    and the window width that makes deferral safe — or ``None`` when the
    job occupies a single node (no inter-node traffic exists to relay, but
    no safe window exists either: serial).
    """

    n_shards: int
    #: proc id -> shard id (dense list, index by proc)
    shard_of_proc: Tuple[int, ...]
    #: node id -> shard id, populated nodes only, in planning order
    shard_of_node: Dict[int, int]
    #: per shard, the sorted tuple of proc ids it owns
    local_procs: Tuple[Tuple[int, ...], ...]
    lookahead: Optional[float]

    @classmethod
    def build(cls, placement, rmap, workers: int) -> "ShardPlan":
        n_procs = len(placement)
        node_of = placement.proc_nodes
        n_ranks = rmap.n_ranks  # replica-major: proc = replica * n_ranks + rank
        lowest_rank = [n_ranks] * placement.cluster.nodes
        procs_per_node = [0] * placement.cluster.nodes
        for proc, node in enumerate(node_of):
            procs_per_node[node] += 1
            if proc % n_ranks < lowest_rank[node]:
                lowest_rank[node] = proc % n_ranks
        # Planning order: populated nodes by lowest hosted rank, then node id.
        by_rank = sorted(zip(lowest_rank, range(len(lowest_rank))))
        nodes = [node for _rank, node in by_rank if procs_per_node[node]]
        n_shards = max(1, min(workers, len(nodes)))
        # Chunks of the planning order balanced by proc count: each node is
        # cut into the shard its cumulative proc share falls in (the classic
        # proportional partition — for the common equal-procs-per-node
        # placements this is exactly ``floor(i * n_shards / n_nodes)``).
        # A pathologically skewed placement can leave a shard empty;
        # compressing to dense ids keeps the partition contiguous.
        shard_of_node: Dict[int, int] = {}
        dense: Dict[int, int] = {}
        acc = 0
        for node in nodes:
            sid = acc * n_shards // n_procs
            shard_of_node[node] = dense.setdefault(sid, len(dense))
            acc += procs_per_node[node]
        n_shards = len(dense)
        shard_of_proc = tuple(shard_of_node[n] for n in node_of)
        local: List[List[int]] = [[] for _ in range(n_shards)]
        for proc, s in enumerate(shard_of_proc):
            local[s].append(proc)
        latency = placement.cluster.inter_node.latency
        lookahead = latency if len(nodes) > 1 and latency > 0.0 else None
        return cls(
            n_shards=n_shards,
            shard_of_proc=shard_of_proc,
            shard_of_node=shard_of_node,
            local_procs=tuple(tuple(procs) for procs in local),
            lookahead=lookahead,
        )

    def __post_init__(self) -> None:
        """Partition sanity, so a plan the planner got wrong never runs:
        every proc in exactly one shard, shards non-empty, node-aligned
        and contiguous in planning order."""
        seen = set()
        for sid, procs in enumerate(self.local_procs):
            if not procs:
                raise ValueError(f"shard {sid} owns no processes")
            for p in procs:
                if p in seen:
                    raise ValueError(f"proc {p} appears in two shards")
                seen.add(p)
                if self.shard_of_proc[p] != sid:
                    raise ValueError(f"proc {p}: shard_of_proc disagrees with local_procs")
        if len(seen) != len(self.shard_of_proc):
            raise ValueError("some processes are unassigned")
        last = -1
        for sid in self.shard_of_node.values():
            if sid < last:
                raise ValueError("node → shard assignment is not contiguous")
            last = sid


def classify_hazards(job, plan: ShardPlan) -> List[str]:
    """Reasons this job cannot run sharded (empty list == shardable).

    Each hazard names a feature whose serial semantics depend on global
    state a shard cannot reproduce deterministically; the caller records
    the list in the result metadata and falls back to the serial engine.
    """
    hazards: List[str] = []
    if plan.n_shards < 2:
        hazards.append("single_shard")
    if plan.lookahead is None:
        hazards.append("no_lookahead")
    if job.fabric._jitter is not None:
        # Jitter draws happen per inject in global event order — per-shard
        # order would reshuffle the stream.
        hazards.append("jitter")
    faults = job.fabric._faults
    if faults is not None and any(
        w.drop_p > 0.0 or w.dup_p > 0.0 for w in faults.windows
    ):
        # Probabilistic draws consume the fault stream in global inject
        # order.  Delay-only windows and partitions draw nothing and are
        # decided from (time, nodes) alone — they stay shardable.
        hazards.append("stochastic_faults")
    if job.membership.detector is not None:
        # The imperfect detector draws notification losses from the
        # membership stream in fan-out order across *all* procs.
        hazards.append("detector")
    if any(
        getattr(proto, "recovery_hook", None) is not None
        for proto in job.protocols.values()
    ):
        # Respawn recovery rebuilds stacks mid-run; the forked shards
        # cannot agree on the substitute's fork point without consensus.
        hazards.append("recovery")
    if job.protocols[0].replica_fanout:
        # (One class per job: every stack is built from `cfg.protocol`.)
        # Each replica of a sender targets replicas of the receiver in the
        # other replica sets too: the sets' frames reach one downlink at
        # one instant by construction, the tie a merge can only taint on.
        hazards.append("replica_fanout")
    if "fork" not in mp.get_all_start_methods():
        hazards.append("no_fork")
    return hazards


class _ShardTaint(Exception):
    """An interleaving the shards cannot replay byte-identically: the run
    is abandoned and re-executed on the serial engine, the reason recorded
    — correctness is never traded for the speedup.

    A worker's merge raises it when the deferred-frame order cannot be
    reconstructed (frames from *different* shards hitting one destination
    node's downlink at the exact same inject time: the serial engine would
    price them in its global same-timestamp dispatch order, which no
    shard-local information can recover) and reports it at the barrier.
    The parent raises it from its checks around the finalize-drain release
    (a frame wake or crash at/after the global completion time, an
    ambiguous completion trigger, relay traffic after the release).
    Wildcard matching needs no taint: it reads only the arrival order.
    """


def _pushed_at(seq: int, ev, marks: list, reseq: dict, sim) -> float:
    """Virtual time at which pending cohort entry ``(seq, ev)`` was pushed.

    A frame carries it (``sent_at``); an entry a past merge renumbered has
    it in *reseq*; anything else is recovered from *marks*, the worker's
    ``(seq_counter, vtime)`` checkpoint list appended from ``on_advance``
    each time a timestamp closes: every seq in ``(marks[k-1][0],
    marks[k][0]]`` was pushed exactly at ``marks[k][1]``, and seqs beyond
    the last mark during the still-open current timestamp.
    """
    at = getattr(ev, "sent_at", None)
    if at is None:
        at = reseq.get(seq)
    if at is None:
        idx = bisect_left(marks, (seq,))
        at = marks[idx][1] if idx < len(marks) else sim._now
    return at


def _merge_deferred(job, local: list, imported: list, marks: list, reseq: dict) -> None:
    """Window barrier: price and schedule every deferred frame.

    *local* holds this shard's own :attr:`Fabric.deferred` records with
    live frame objects; *imported* are relay records ``(inject_time,
    src_shard, seq, t_head, ser, extra_delay, *fields)``, re-acquired here
    into the local shape.  Both sort under the canonical key
    ``(inject_time, src_shard, seq)``: for time-distinct injects this is
    the order the serial engine priced the shared downlink in, and for
    same-time injects from one shard the shard-local ``seq`` *is* the
    serial dispatch order projected onto that shard (restricted
    determinism — the whole window protocol rests on it).  Same-time
    injects from *different* shards are ordered by shard id, which is
    only a guess; it matters exactly when they contend for one
    destination node's downlink, and that case raises
    :class:`_ShardTaint` (serial fallback) instead of guessing.

    Pass 1 prices the downlinks in canonical order; pass 2
    (:func:`_place_cohort`) puts each frame where the serial engine's
    push would have put it among the entries sharing its arrival time.
    """
    fab = job.fabric
    sim = job.sim
    node_of = fab._node_of
    # An import has no sim_seq: counters of different shards do not compare.
    entries = local + [(*rec[:3], fab.import_frame(*rec[6:]), *rec[3:6], None) for rec in imported]
    if not entries:
        return
    # (inject_time, dst_node) -> src shard; a second distinct shard on the
    # same key is the unorderable downlink tie the docstring describes.
    tie_guard: Dict[Tuple[float, int], int] = {}
    for rec in entries:
        if tie_guard.setdefault((rec[0], node_of[rec[3].dst]), rec[1]) != rec[1]:
            raise _ShardTaint("tied cross-shard downlink contention")
    # The key prefix is unique (seq is, per shard window), so the sort never
    # reaches the frame; the input is a few sorted runs, which timsort
    # merges in linear time.
    entries.sort()
    # Pass 1 — canonical-order pricing: downlink occupancy must evolve in
    # serial inject order regardless of where each frame lands in the queue.
    by_arrival: Dict[float, list] = {}
    price = fab.price_downlink
    for rec in entries:
        frame = rec[3]
        arrival = price(frame.src, frame.dst, rec[4], rec[5], rec[6])
        # Serial inject stamps sent_at at dispatch; imported frames must
        # carry it too — it is the push-order witness for later merges.
        frame.sent_at = rec[0]
        by_arrival.setdefault(arrival, []).append(rec)
    # Cohort lists are seq-ascending, so the oldest pending seq is the
    # smallest list head; it bounds how far back push-time checkpoints can
    # still be queried — everything older is pruned.
    cohorts = sim._cohorts
    if cohorts:
        min_pending = min(cohort[0][0] for cohort in cohorts.values())
        del marks[: bisect_left(marks, (min_pending,))]
        for k in [k for k in reseq if k < min_pending]:
            del reseq[k]
    for arrival, news in by_arrival.items():
        _place_cohort(sim, arrival, news, marks, reseq)


def _place_cohort(sim, arrival: float, news: list, marks: list, reseq: dict) -> None:
    """Pass 2 of the merge for one arrival time: serial-true placement of
    *news* (deferred records, canonical order) inside its pending cohort.

    Queue placement must be serial-true, not merely time-true.  Serial
    dispatch breaks arrival-time ties by cohort position — i.e. by *push
    order*, and a frame is pushed at its inject dispatch.  A deferred frame
    pushed here, at the barrier, would sort after every same-arrival
    local entry pushed during past windows, even ones the serial engine
    pushed *after* the frame's inject (observable: the destination
    process resumes before the frame lands, takes the wait-then-wake
    path, and ``events_dispatched`` drifts).  So each deferred frame goes
    before the first pending entry of its arrival time that the serial
    engine pushed after it (push times via :func:`_pushed_at`).  One
    forward pass does it: whatever a frame passes, every canonically later
    frame passes too (inject times and, at one instant, local defer seqs
    are non-decreasing along *news*), so each scan resumes where the
    previous one stopped.  Entries pushed at the exact inject instant of a
    frame from another shard are the one genuinely unorderable case
    (cross-shard same-timestamp interleave) and taint — including those an
    earlier local frame of that instant already passed (*tied_at*).

    When a frame lands before a pending entry the whole cohort is
    rewritten in serial push order, *renumbered* with fresh consecutive
    integer seqs.  Renumbering (rather than fractional interpolation
    between neighbouring seqs) survives any insertion volume — repeated
    midpoints exhaust double precision on large tiers.  Renumbered
    non-frame entries lose their mark mapping, so their true push time is
    remembered in *reseq* (new seq -> push time) for later merges.
    """
    cohorts = sim._cohorts
    row = cohorts.get(arrival)
    first = sim._seq + 1
    if row is None:
        # Lookahead guarantees arrival >= window end > sim._now: always a
        # strict-future push, exactly where serial put it.
        sim._seq += len(news)
        cohorts[arrival] = [(seq, rec[3]) for seq, rec in enumerate(news, first)]
        heappush(sim._queue, arrival)
        return
    n_old = len(row)
    pushed: List[float] = []  # push times of row[: len(pushed)], recovered on demand
    slots: List[int] = []  # per frame: how many pending entries serial pushed before it
    i = 0
    tied_at = None
    for rec in news:
        inject_time = rec[0]
        defer_seq = rec[7]
        if defer_seq is None and inject_time == tied_at:
            raise _ShardTaint("same-instant push tie at shared arrival time")
        while i < n_old:
            seq_e, ev = row[i]
            if i == len(pushed):
                pushed.append(_pushed_at(seq_e, ev, marks, reseq, sim))
            pushed_at = pushed[i]
            if pushed_at > inject_time:
                break
            if pushed_at == inject_time:
                if defer_seq is None:
                    # Pushed at the very instant of our inject, in
                    # another shard: the cross-shard same-timestamp
                    # interleave no shard-local record can reconstruct.
                    raise _ShardTaint("same-instant push tie at shared arrival time")
                # Locally-held frame: the defer snapshotted the kernel
                # seq counter at the inject dispatch, which is exactly
                # where the serial engine would have pushed us —
                # entries with a higher seq were pushed after.
                if seq_e > defer_seq:
                    break
                tied_at = inject_time
            i += 1
        slots.append(i)
    if slots[0] == n_old:
        # Every deferred frame lands after all pending entries: fresh
        # counter seqs at the tail sort correctly.
        sim._seq += len(news)
        row.extend((seq, rec[3]) for seq, rec in enumerate(news, first))
        return
    # Rewrite the cohort in serial order under fresh consecutive seqs.
    # Seqs only ever compare within one timestamp, and the new seqs
    # stay below every future push, so this is invisible outside it.
    pushed.extend(_pushed_at(seq_e, ev, marks, reseq, sim) for seq_e, ev in row[len(pushed) :])
    merged: list = []
    k = 0
    for j, (_seq_e, ev) in enumerate(row):
        while k < len(slots) and slots[k] == j:
            merged.append(news[k][3])
            k += 1
        if getattr(ev, "sent_at", None) is None:
            # Non-frame entries carry no sent_at; keep their true push
            # time reachable under the new seq.
            reseq[first + len(merged)] = pushed[j]
        merged.append(ev)
    merged.extend(rec[3] for rec in news[k:])
    sim._seq += len(merged)
    row[:] = enumerate(merged, first)


def _drain_deferred(job, plan: ShardPlan, shard_id: int):
    """Split this window's deferred records into the locally-kept ones and
    per-destination-shard relay records (exporting the latter's frames)."""
    fab = job.fabric
    shard_of_proc = plan.shard_of_proc
    local: list = []
    exports: Dict[int, list] = {}
    for rec in fab.deferred:
        frame = rec[3]
        dst_shard = shard_of_proc[frame.dst]
        if dst_shard == shard_id:
            local.append(rec)
        else:
            exports.setdefault(dst_shard, []).append((*rec[:3], *rec[4:7], *frame.fields()))
            fab.export_frame(frame)
    fab.deferred = []
    return local, exports


# ---------------------------------------------------------------- worker side


def _local_done_info(job, crash_times: Dict[int, float]):
    """``(done_at, kind, last_proc)`` once every local process has finished
    or crashed, else ``None``.

    ``done_at`` is the local completion time — the moment the last local
    blocker was removed (a finish, or a crash of a never-finished proc);
    ``kind`` says which removed it (``"tie"`` when a finish and a crash
    coincide exactly — the parent cannot reconstruct the serial dispatch
    order and falls back).  ``last_proc`` is the *dispatch-order* last
    finisher (``finish_times`` is insertion-ordered, and finish events
    dispatch in time order), the process that serially would flip the
    all-done flag inside its own finish and never park.  A shard whose
    every local proc is absent reports ``(None, None, None)``: vacuously
    done, exactly as its procs never enter the serial scan.
    """
    done_at = kind = last_proc = None
    for proc, p in job.processes.items():
        if proc in job.finish_times:
            t, k = job.finish_times[proc], "finish"
        elif p.crashed:
            t, k = crash_times.get(proc), "crash"
            if t is None:  # pragma: no cover - hook precedes every start
                return None
        else:
            return None
        if done_at is None or t > done_at:
            done_at, kind = t, k
        elif t == done_at and k != kind:
            kind = "tie"
    if kind == "finish":
        last_proc = next(reversed(job.finish_times))
    return (done_at, kind, last_proc)


def _shard_worker(conn, job, plan: ShardPlan, shard_id: int) -> None:
    """Forked worker: own Simulator copy, window loop, audited finalize."""
    # The inherited heap is the whole job (16k process stacks at the 8k-rank
    # tier) and lives as long as the worker.  Dispatch runs collector-off
    # anyway; the barrier phases allocate a tuple per deferred frame, which
    # with it on buys a pass over that heap every few hundred frames.
    gc.freeze()
    gc.disable()
    sim = job.sim
    fab = job.fabric
    fab.deferred = []
    fab.shard_id = shard_id
    local_set = set(plan.local_procs[shard_id])
    job.membership.local_procs = local_set
    job._shard_mode = True
    # Replayed crashes stamp their sim time: local completion (and the
    # parent's post-completion-crash taint check) needs removal *times*,
    # which Process/membership bookkeeping does not retain.
    crash_times: Dict[int, float] = {}
    fab.on_crash.append(lambda p: crash_times.__setitem__(p, sim.now))
    # Push-time checkpoints for serial-true merge placement: each clock
    # advance closes a timestamp, so (seq counter, vtime) pairs let the
    # merge recover the exact virtual time any pending cohort entry was
    # pushed at (see _pushed_at).
    marks: List[Tuple[int, float]] = []
    # Push times of renumbered non-frame entries (new seq -> virtual push
    # time); renumbering moves them past the marks' seq range.
    reseq: Dict[int, float] = {}

    def _mark_advance(_append=marks.append, _sim=sim):
        _append((_sim._seq, _sim._now))

    def finished_rx() -> int:
        return sum(fab.endpoints[p].frames_received for p in local_set if p in job.finish_times)

    sim.on_advance = _mark_advance
    # Start only this shard's processes, in proc order — the local t=0
    # bucket order is exactly the serial order's projection onto the shard.
    for proc in plan.local_procs[shard_id]:
        if proc in job.absent:
            continue
        job._start_process(proc, job._app_factory(job.mpis[proc], **job._app_kwargs))
    conn.send(("ready", sim.peek()))
    # Locally-kept deferred frames are *held* until the next barrier and
    # priced in one sorted batch with that window's imports: pricing them
    # eagerly at window end would order every local frame ahead of every
    # relayed one, where serial interleaves them by (inject_time, src).
    held: list = []
    release_rx: Optional[int] = None
    while True:
        cmd = conn.recv()
        op = cmd[0]
        if op == "step":
            _horizon, until, imports = cmd[1], cmd[2], cmd[3]
            try:
                _merge_deferred(job, held, imports, marks, reseq)
            except _ShardTaint as taint:
                # Unorderable window: report instead of guessing.  The
                # parent abandons the pool and reruns serially; this
                # worker just parks until the pool ends it.
                conn.send(("taint", str(taint)))
                continue
            held = []
            if _horizon is not None:
                sim.run_until_before(_horizon)
            else:
                # Final window: inclusive of events at the horizon,
                # clock parked at `until`, exactly like the serial path.
                sim.run(until)
            held, exports = _drain_deferred(job, plan, shard_id)
            wakes = job._drain_wakes
            job._drain_wakes = []
            conn.send(
                (
                    "barrier",
                    exports,
                    sim.peek(),
                    bool(held),
                    _local_done_info(job, crash_times),
                    wakes,
                    max(crash_times.values()) if crash_times else None,
                )
            )
        elif op == "release":
            # Global completion established: flip the all-done flag so the
            # parked finalize-drain loops exit.  The wakes land in the sim
            # bucket and dispatch in the next window.  The delivery count
            # snapshot backs the tied-completion taint check: a frame
            # delivered to a finished proc *after* the release would hit a
            # stale endpoint waiter the serial engine's last finisher does
            # not have.
            job._release_drain(cmd[1])
            release_rx = finished_rx()
            conn.send(("released", sim.peek()))
        elif op == "finish":
            until, audit, allow_lost = cmd[1], cmd[2], cmd[3]
            if held:  # pragma: no cover - parent drains deferrals first
                raise RuntimeError("finish with unmerged deferred frames")
            try:
                part = job._close(plan.local_procs[shard_id], until, allow_lost, audit)
                part["exceptions"] = [(proc, _portable(proc, exc)) for proc, exc in part["exceptions"]]
            except Exception as exc:  # a failed guard check or audit surfaces at the parent
                part = {"error": (type(exc).__name__, str(exc), traceback.format_exc())}
            part["crash_fired"] = job._crash_fired
            part["post_release_rx"] = finished_rx() - release_rx if release_rx is not None else 0
            conn.send(("result", part))
            return
        else:  # pragma: no cover - protocol error
            raise RuntimeError(f"unknown shard command {op!r}")


def _portable(proc: int, exc: BaseException) -> BaseException:
    """A process's exception as it can cross the pipe: itself when it
    survives pickling, else a ``RuntimeError`` naming it (an exception
    whose ``__init__`` does not take its own ``args`` back, such as
    ``DeadlockError``, cannot be unpickled)."""
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:  # any pickling failure means "does not cross"
        return RuntimeError(f"process {proc} died in sharded run: {type(exc).__name__}: {exc}")
    return exc


# ---------------------------------------------------------------- parent side


def run_parallel(job, until=None, allow_lost_ranks: bool = False, audit=None):
    """Execute *job* across a shard pool; returns a merged ``JobResult``
    byte-equivalent to the serial engine's (or the serial result itself,
    annotated with the fallback reasons, when a hazard forbids sharding).
    """
    if job._app_factory is None:
        raise RuntimeError("run_parallel before launch()")
    if audit is None:
        audit = until is None
    requested = job.parallel.workers
    plan = ShardPlan.build(job.placement, job.rmap, requested)
    lookahead = plan.lookahead
    windows = 0

    def meta(shards: int, fallback: List[str]) -> dict:
        return {
            "workers": shards,
            "requested": requested,
            "shards": shards,
            "fallback": fallback,
            "lookahead": lookahead,
            "windows": windows,
        }

    def serial_fallback(reasons: List[str]):
        job._launch_now()  # the processes launch() deferred to the workers
        result = job._run_serial(until=until, allow_lost_ranks=allow_lost_ranks, audit=audit)
        result.parallel = meta(1, reasons)
        return result

    hazards = classify_hazards(job, plan)
    if hazards:
        return serial_fallback(hazards)
    n_shards = plan.n_shards
    released = False
    release_comp = 0
    tie_release = False
    infos: List[Optional[tuple]] = [None] * n_shards
    max_wake: Optional[float] = None
    max_crash: Optional[float] = None

    def barrier_round() -> None:
        nonlocal peeks, held, max_wake, max_crash, windows
        new_peeks, new_held, new_infos, wake, crash, got_exports = _collect_barrier(pool, pending)
        peeks, held = new_peeks, new_held
        windows += 1
        for sid, info in enumerate(new_infos):
            if info is not None:
                infos[sid] = info
        if wake is not None:
            max_wake = wake if max_wake is None else max(max_wake, wake)
        if crash is not None:
            max_crash = crash if max_crash is None else max(max_crash, crash)
        if released and (got_exports or any(held)):
            # The release drains run on empty inboxes and must emit
            # nothing; any relay traffic after it is off-script.
            raise _ShardTaint("relay traffic after drain release")

    def attempt_release() -> bool:
        """Once every shard reports local completion, establish the global
        completion time, run the taint checks, and command the release."""
        nonlocal released, release_comp, tie_release
        if released or any(info is None for info in infos):
            return False
        real = [info for info in infos if info[0] is not None]
        if not real:
            return False  # no process anywhere: serial never flips either
        t_done = max(info[0] for info in real)
        winners = [info for info in real if info[0] == t_done]
        kinds = {info[1] for info in winners}
        if kinds == {"finish"}:
            if len(winners) == 1:
                last_proc, comp = winners[0][2], 2
            else:
                # Several shards finish at exactly t_done (the norm for
                # symmetric SPMD apps): which proc serially skips the park
                # depends on batch order no shard can see.  The two-event
                # compensation holds regardless of identity; the one
                # unverifiable artifact — the skipped proc's stale endpoint
                # waiter — is guarded by the post-release delivery check.
                last_proc, comp = None, 2
                tie_release = True
        elif kinds == {"crash"}:
            # Completion triggered by a crash: serially *every* finished
            # proc parked and wakes — no park to retire, no compensation.
            last_proc, comp = None, 0
        else:
            raise _ShardTaint("ambiguous completion trigger")
        if max_wake is not None and max_wake >= t_done:
            # A parked proc drained a frame at/after the completion time;
            # serially it would have exited the drain loop first.
            raise _ShardTaint("drain wake at/after completion")
        if max_crash is not None and max_crash >= t_done:
            raise _ShardTaint("crash at/after completion")
        for sid in range(n_shards):
            pool.send(sid, ("release", last_proc))
        for sid in range(n_shards):
            peeks[sid] = _recv(pool, sid, "released")[1]
        released = True
        release_comp = comp
        return True

    try:  # a dead worker raises WorkerDied, never falls back
        with Pool(_shard_worker) as pool:
            for sid in range(n_shards):
                pool.spawn(sid, job, plan, sid)
            peeks = [_recv(pool, s, "ready")[1] for s in range(n_shards)]
            pending: List[List[Any]] = [[] for _ in range(n_shards)]
            held = [False] * n_shards
            last_horizon = 0.0
            while True:
                attempt_release()
                live = [t for t in peeks if t is not None]
                deferred = any(pending) or any(held)
                if not live and not deferred:
                    final_t = None
                else:
                    t = min(live) if live else last_horizon
                    if deferred and last_horizon < t:
                        # Deferred arrivals (routed or still held in their
                        # source shard) are only bounded below by the last
                        # horizon; the true minimum may sit anywhere past it.
                        t = last_horizon
                    final_t = t
                if final_t is None or (until is not None and final_t + lookahead > until):
                    break
                horizon = final_t + lookahead
                for sid in range(n_shards):
                    pool.send(sid, ("step", horizon, None, pending[sid]))
                    pending[sid] = []
                barrier_round()
                last_horizon = max(last_horizon, horizon)
            if until is not None:
                # Inclusive epilogue: every shard runs `sim.run(until)` so its
                # clock parks at the horizon exactly as the serial engine's.
                # Repeats while anything at or below `until` remains — a late
                # release wake, a deferred frame whose priced arrival lands
                # inside the horizon — so the dispatched-event set matches the
                # serial run's exactly; arrivals past `until` merge into the
                # queue undispatched (the in-flight strand audit sees them).
                while True:
                    for sid in range(n_shards):
                        pool.send(sid, ("step", None, until, pending[sid]))
                        pending[sid] = []
                    barrier_round()
                    if attempt_release():
                        continue
                    live = [t for t in peeks if t is not None and t <= until]
                    if not live and not any(pending) and not any(held):
                        break
            for sid in range(n_shards):
                pool.send(sid, ("finish", until, audit, allow_lost_ranks))
            parts = [_recv(pool, sid, "result")[1] for sid in range(n_shards)]
            if tie_release and any(part["post_release_rx"] for part in parts):
                raise _ShardTaint("post-release delivery under tied completion")
    except _ShardTaint as taint:
        return serial_fallback([f"drain_race: {taint}"])
    return _merge_results(job, plan, parts, meta(n_shards, []), until, allow_lost_ranks, release_comp)


def _recv(pool, sid: int, expected: str, also: Tuple[str, ...] = ()):
    msg = pool.recv(sid)
    if msg[0] != expected and msg[0] not in also:  # pragma: no cover - protocol error
        raise RuntimeError(f"expected {expected!r} from shard, got {msg[0]!r}")
    return msg


def _collect_barrier(pool, pending):
    """Gather one barrier round: route every export to its destination
    shard's pending-import list; return the per-shard peeks, held-local
    flags, local-completion infos, the max drain-wake and crash times
    reported this round, and whether any shard exported anything."""
    peeks: List[Optional[float]] = [None] * len(pending)
    held = [False] * len(pending)
    infos: List[Optional[tuple]] = [None] * len(pending)
    max_wake: Optional[float] = None
    max_crash: Optional[float] = None
    got_exports = False
    taint: Optional[str] = None
    for sid in range(len(pending)):
        msg = _recv(pool, sid, "barrier", also=("taint",))
        if msg[0] == "taint":
            # Collect the remaining replies before raising so no worker is
            # left blocked mid-send when the pool is torn down.
            taint = msg[1]
            continue
        exports, peek, has_held, info, wakes, crash = msg[1:7]
        peeks[sid] = peek
        held[sid] = has_held
        infos[sid] = info
        if wakes:
            top = max(wakes)
            max_wake = top if max_wake is None else max(max_wake, top)
        if crash is not None:
            max_crash = crash if max_crash is None else max(max_crash, crash)
        if exports:
            got_exports = True
        for dst_shard, records in exports.items():
            pending[dst_shard].extend(records)
    if taint is not None:
        raise _ShardTaint(taint)
    return peeks, held, infos, max_wake, max_crash, got_exports


def _merge_results(job, plan, parts, meta, until, allow_lost_ranks, release_comp=0):
    """The sharded run's ``JobResult``: the shards' :meth:`Job._close`
    parts through :meth:`JobResult.merge` — the serial run's builder and
    raise sites — plus what only a sharded run needs: a failed shard close,
    crash-replay agreement, relay conservation, the request ledger's
    commits and the event and acquire double counts."""
    from repro.harness.runner import JobResult  # local: runner imports us

    for sid, part in enumerate(parts):
        if "error" in part:
            name, text, tb = part["error"]
            exc_type = AssertionError if name == "AssertionError" else RuntimeError
            raise exc_type(f"shard {sid} finalize failed: {name}: {text}\n{tb}")
    crash_fired = parts[0]["crash_fired"]
    if any(p["lost_ranks"] != parts[0]["lost_ranks"] or p["crash_fired"] != crash_fired for p in parts):
        # Crash replay is global state every shard must agree on.
        raise AssertionError(
            "shards disagree on crash replay: "
            f"lost_ranks {[p['lost_ranks'] for p in parts]}, "
            f"crash_fired {[p['crash_fired'] for p in parts]}"
        )
    book = job.traffic
    if book is not None:
        for part in parts:
            for rank, done in part["traffic_committed"].items():
                book.commit(rank, done)
    result = JobResult.merge(parts, until, allow_lost_ranks, book)
    fab = result.fabric
    # Cross-shard relay conservation: what left one shard entered another.
    if fab["frames_exported"] != fab["frames_imported"]:
        raise AssertionError(
            f"relay leak: frames_exported {fab['frames_exported']} "
            f"!= frames_imported {fab['frames_imported']}"
        )
    if book is not None:
        book.audit()
    # An imported frame is re-acquired in its destination shard; subtract
    # the double count so the merged figure equals the serial acquire count.
    fab["frames_acquired"] -= fab["frames_imported"]
    # Crash callbacks replay in every shard; each fires once per shard but
    # must count once globally.  `release_comp` subtracts the drain-release
    # wake of the globally last finisher — the one park the serial engine
    # never performs (it flips the all-done flag inside its own finish).
    result.events -= (plan.n_shards - 1) * crash_fired + release_comp
    result.parallel = meta
    return result
