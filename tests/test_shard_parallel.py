"""Conservative sharded-parallel execution: byte-identical to serial.

The multi-core engine (:mod:`repro.sim.shard`) partitions processes by
logical-rank range (whole nodes, every replica of a rank together) into
per-shard Simulators, synchronized by conservative windows on the
minimum inter-shard wire latency.  Its entire contract is *byte
identity*: :func:`repro.sim.shard.fingerprint` of a sharded run must
equal the serial engine's for every protocol, degree, worker count, crash
schedule and horizon — and whenever the shards cannot prove they can
replay the serial interleaving (drain races, tied cross-shard downlink
contention, hazard features), the run falls back to the serial engine
with the reasons recorded in ``result.parallel["fallback"]``.

Five layers pinned here:

* **fingerprint equivalence** — hypothesis-driven serial-vs-sharded runs
  across all five protocols at degree 2 and 3, plus crash/failover,
  run-until horizons, delay-only fault plans, open-loop traffic, a
  non-paper placement, every wildcard (``ANY_SOURCE``) application and
  the fault-campaign fallback path; the jobs
  the rank-range plan made shardable are pinned as *truly* sharded;
* **merge placement** — the linear cohort placement against the
  quadratic scan it replaced (kept here as the reference), on random
  cohorts with local/imported mixes and same-instant ties;
* **shard planner** — partition validity (every proc exactly once,
  node-aligned, balanced, replicas of a rank together), unreplicated
  plans equal to the recorded node-range plans, lookahead = minimum
  inter-node latency, and the single-shard degenerate case;
* **fallback honesty** — hazard features (jitter, stochastic faults,
  detector, replica fan-out) and single-node placements run serially
  with the reason recorded and no worker forked, and the default ``Job``
  path carries no parallel metadata at all; a *killed* worker is not a
  fallback but a ``WorkerDied`` naming the shard;
* **error paths** — a deadlock, a lost rank, an audit leak and a process
  exception raise from a sharded run what they raise serially.
"""

from __future__ import annotations

import dataclasses
import heapq
import json
import math
import multiprocessing as mp
from bisect import bisect_left
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.apps.cm1 import cm1_validate_rank
from repro.apps.hpccg import hpccg_validate_rank
from repro.apps.patterns import anysource_reduce, master_worker
from repro.core.config import ReplicationConfig
from repro.core.worlds import ReplicaMap
from repro.harness.campaign import CampaignConfig
from repro.harness.runner import Job, JobShape, cluster_for
from repro.mpi.errors import DeadlockError, MpiError, TruncationError
from repro.network.fabric import CostTable
from repro.network.model import FaultPlan, LinkFaultWindow
from repro.network.topology import Cluster, round_robin_placement, split_halves_placement
from repro.scenarios import anysource_fanin, get_scenario, ring_collectives
from repro.sim.kernel import Simulator
from repro.sim.shard import (
    ParallelConfig,
    ShardPlan,
    _place_cohort,
    _ShardTaint,
    classify_hazards,
    fingerprint,
    run_parallel,
)

PROTOCOLS = ["native", "sdr", "mirror", "leader", "redmpi"]
#: protocols whose sends fan out across replica sets (``replica_fanout``)
FANOUT_PROTOCOLS = ["mirror", "redmpi"]
DATA = Path(__file__).parent / "data"


def _run(
    protocol: str,
    n_ranks: int,
    workers: int = 0,
    crash=(),
    until=None,
    fault_plan=None,
    degree=2,
    app=ring_collectives,
    **kwargs,
):
    if protocol == "native":
        cfg = ReplicationConfig(degree=1, protocol="native")
    else:
        cfg = ReplicationConfig(degree=degree, protocol=protocol)
    job = Job(
        n_ranks,
        cfg=cfg,
        cluster=cluster_for(n_ranks, cfg.degree),
        fault_plan=fault_plan,
        parallel=ParallelConfig(workers=workers) if workers else None,
    )
    job.launch(app, **kwargs)
    for rank, rep, at in crash:
        job.crash(rank, rep, at=at)
    return job.run(until=until, allow_lost_ranks=bool(crash))


def _plan_for(n_ranks: int, workers: int, protocol: str = "sdr", degree: int = 2):
    degree = 1 if protocol == "native" else degree
    cfg = ReplicationConfig(degree=degree, protocol=protocol)
    job = Job(n_ranks, cfg=cfg, cluster=cluster_for(n_ranks, degree))
    plan = ShardPlan.build(job.placement, job.rmap, workers)
    return job, plan


# ------------------------------------------------------- equivalence suite
@settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    protocol=st.sampled_from(PROTOCOLS),
    n_ranks=st.sampled_from([8, 16]),
    workers=st.integers(min_value=2, max_value=4),
    iters=st.integers(min_value=1, max_value=2),
    degree=st.sampled_from([2, 3]),
)
def test_sharded_fingerprint_equals_serial(protocol, n_ranks, workers, iters, degree):
    """The load-bearing property: any protocol, size, degree, worker count
    and iteration depth produces the exact serial fingerprint — whether
    the run truly sharded or conservatively fell back."""
    serial = _run(protocol, n_ranks, iters=iters, nbytes=256, degree=degree)
    parallel = _run(protocol, n_ranks, workers=workers, iters=iters, nbytes=256, degree=degree)
    assert parallel.parallel is not None
    assert fingerprint(parallel) == fingerprint(serial)
    if protocol in FANOUT_PROTOCOLS:
        assert parallel.parallel["fallback"] == ["replica_fanout"]
        assert parallel.parallel["windows"] == 0


@pytest.mark.parametrize("workers", [2, 4])
def test_crash_failover_runs_shard_byte_identical(workers):
    """Fail-stop crashes mid-collective (SDR failover) replay exactly:
    the crash fan-out, detection latencies and the post-crash protocol
    traffic all land on the serial timeline."""
    crash = [(1, 1, 2e-5), (5, 0, 3e-5)]
    serial = _run("sdr", 16, crash=crash, iters=3, nbytes=256)
    parallel = _run("sdr", 16, workers=workers, crash=crash, iters=3, nbytes=256)
    assert fingerprint(parallel) == fingerprint(serial)


@pytest.mark.parametrize("workers", [2, 4])
def test_rendezvous_tied_arrivals_shard_byte_identical(workers):
    """Rendezvous handshakes (RTS/CTS ctrl frames) in a lockstep 16-rank
    ring land cross-shard frames at arrival times shared with pending
    local charge entries — serial breaks the tie by *push order* (the
    frame was heappushed at its inject dispatch), which the merge must
    reproduce via push-time checkpoints, not merge-time seqs.  Pinned as
    truly sharded: a fallback would hide a placement regression."""
    serial = _run("sdr", 16, iters=2)  # default nbytes: rendezvous path
    parallel = _run("sdr", 16, workers=workers, iters=2)
    assert parallel.parallel["fallback"] == []
    assert parallel.parallel["shards"] == workers
    assert fingerprint(parallel) == fingerprint(serial)


@pytest.mark.parametrize(
    "protocol, degree, n_ranks, workers, nbytes",
    [("sdr", 3, 64, 2, 256), ("sdr", 2, 128, 4, 4096), ("leader", 2, 128, 4, 4096)],
)
def test_rank_range_plan_shards_what_replica_set_shards_could_not(
    protocol, degree, n_ranks, workers, nbytes
):
    """Pinned as *truly* sharded: all three tainted on a tied cross-shard
    downlink under the node-range plan (whose shards were the replica
    sets) and must not quietly start falling back again."""
    serial = _run(protocol, n_ranks, iters=2, nbytes=nbytes, degree=degree)
    parallel = _run(protocol, n_ranks, workers=workers, iters=2, nbytes=nbytes, degree=degree)
    assert parallel.parallel["fallback"] == []
    assert parallel.parallel["shards"] == workers
    assert fingerprint(parallel) == fingerprint(serial)


def test_acks_stay_off_the_relay():
    """The traffic claim, exactly: SDR acks run between the replicas of one
    rank, which the plan keeps in one shard — so the relay carries fewer
    frames than there are acks (the node-range plan relayed every ack:
    1,792 exports for 1,792 acks on this job)."""
    res = _run("sdr", 64, workers=2, iters=2, nbytes=256)
    assert res.parallel["fallback"] == []
    assert res.fabric["frames_exported"] < res.stat_total("acks_sent")


def test_non_paper_placement_shards_byte_identical():
    """Cyclic placement on six nodes: the replicas of a rank sit four nodes
    apart and the planning order (nodes by lowest hosted rank) is not node
    order — the plan is still a valid partition and the run the serial
    one."""
    cfg = ReplicationConfig(degree=2, protocol="sdr")
    cluster = Cluster(nodes=6, cores_per_node=8)
    placement = round_robin_placement(cluster, 32, fill_node_first=False)
    shape = dataclasses.replace(
        JobShape.build(16, cfg, cluster), placement=placement, cost_table=CostTable(placement)
    )

    def run(workers):
        job = Job(
            16, cfg=cfg, shape=shape, parallel=ParallelConfig(workers=workers) if workers else None
        )
        return job.launch(ring_collectives, iters=2, nbytes=256).run()

    plan = ShardPlan.build(placement, shape.rmap, 3)
    assert list(plan.shard_of_node) == [0, 4, 1, 5, 2, 3]
    assert [len(procs) for procs in plan.local_procs] == [11, 11, 10]
    parallel = run(3)
    assert parallel.parallel["requested"] == 3
    assert fingerprint(parallel) == fingerprint(run(0))


def test_anysource_receives_shard_byte_identical():
    """ANY_SOURCE matching is a pure function of each endpoint's arrival
    order and posting order, and the barrier merge reproduces the serial
    arrival order (serial-true placement) or taints on a tie it cannot
    order: a wildcard job needs no taint of its own.  This one shards
    truly."""
    serial = _run("sdr", 16, app=anysource_fanin, rounds=4)
    parallel = _run("sdr", 16, workers=2, app=anysource_fanin, rounds=4)
    assert parallel.parallel["fallback"] == []
    assert fingerprint(parallel) == fingerprint(serial)


def probe_fanin(mpi, rounds=3):
    """Fan-in through ``probe(ANY_SOURCE)``: rank 0 receives each message
    from the source its wildcard probe names and returns that order."""
    if mpi.rank == 0:
        order = []
        for _ in range(rounds):
            for _ in range(mpi.size - 1):
                st = yield from mpi.probe(source=mpi.ANY_SOURCE, tag=2)
                yield from mpi.recv(source=st.source, tag=2)
                order.append(st.source)
            for dst in range(1, mpi.size):
                yield from mpi.send(np.array([1.0]), dest=dst, tag=3)
        return order
    for _ in range(rounds):
        yield from mpi.send(np.array([float(mpi.rank)]), dest=0, tag=2)
        yield from mpi.recv(source=0, tag=3)
    return None


#: every in-tree application that receives or probes with ANY_SOURCE, at
#: a size that keeps the grid below a few seconds
WILDCARD_APPS = {
    "anysource_fanin": (anysource_fanin, {"rounds": 4}),
    "anysource_reduce": (anysource_reduce, {"rounds": 4}),
    "master_worker": (master_worker, {}),
    "cm1_validate_rank": (cm1_validate_rank, {"steps": 3}),
    "hpccg_validate_rank": (hpccg_validate_rank, {"max_iter": 6}),
    "probe_fanin": (probe_fanin, {}),
}


@pytest.mark.parametrize("name", sorted(WILDCARD_APPS))
def test_wildcard_receives_shard_byte_identical(name):
    """Every wildcard application, under sdr and leader at degree 2 on 16
    ranks and 2 workers, clean and with one crash: the sharded fingerprint
    equals serial, and no fallback is an any-source one."""
    app, kwargs = WILDCARD_APPS[name]
    for protocol in ("sdr", "leader"):
        for crash in ((), ((1, 1, 20e-6),)):
            serial = _run(protocol, 16, crash=crash, app=app, **kwargs)
            parallel = _run(protocol, 16, workers=2, crash=crash, app=app, **kwargs)
            assert fingerprint(parallel) == fingerprint(serial), (protocol, crash)
            assert not any("any-source" in reason for reason in parallel.parallel["fallback"])


@pytest.mark.parametrize("protocol", ["sdr", "mirror"])
def test_until_horizon_runs_shard_byte_identical(protocol):
    """`run(until=...)` parks every shard clock at the horizon and
    dispatches exactly the serial event set (inclusive epilogue)."""
    serial = _run(protocol, 16, until=5e-5, iters=3, nbytes=256)
    parallel = _run(protocol, 16, workers=2, until=5e-5, iters=3, nbytes=256)
    assert fingerprint(parallel) == fingerprint(serial)


def test_delay_only_fault_plan_shards():
    """Delay windows draw nothing from the fault stream — they stay
    shardable (unlike drop/dup, which are a recorded hazard)."""
    plan = FaultPlan(windows=(LinkFaultWindow(0.0, 4e-5, delay=5e-6),))
    serial = _run("sdr", 16, fault_plan=plan, iters=2, nbytes=256)
    parallel = _run("sdr", 16, workers=2, fault_plan=plan, iters=2, nbytes=256)
    assert parallel.parallel["fallback"] == []
    assert parallel.parallel["shards"] == 2
    assert fingerprint(parallel) == fingerprint(serial)
    # Counted once, where the fault runtime decides: non-vacuous on both engines.
    assert serial.fabric["fault_delays"] == parallel.fabric["fault_delays"] == 224


def test_open_loop_traffic_shards_with_balanced_ledger():
    """Open-loop traffic: per-rank arrival plans are pure functions of
    the seed, so the request ledger shards — and the merged totals must
    satisfy the same zero-leak audit as the serial book."""
    cfg = CampaignConfig(n_ranks=8)
    rcfg = ReplicationConfig(degree=2, protocol="sdr")

    def run(workers):
        bound = get_scenario("traffic-poisson").bind(cfg, seed=3)
        job = Job(
            cfg.n_ranks,
            cfg=rcfg,
            seed=3,
            traffic=bound.traffic,
            cluster=cluster_for(cfg.n_ranks, 2),
            parallel=ParallelConfig(workers=workers) if workers else None,
        )
        job.launch(bound.factory, **bound.kwargs)
        res = job.run(until=cfg.horizon, allow_lost_ranks=True, audit=False)
        bound.traffic.audit()
        return res

    serial = run(0)
    parallel = run(2)
    assert parallel.parallel["shards"] == 2
    assert fingerprint(parallel) == fingerprint(serial)


def test_fault_campaign_records_detector_fallback():
    """Campaign mixes run under an imperfect detector — a recorded
    hazard: the run must fall back to the serial engine (byte-identical
    fingerprint) rather than shard an rng stream it cannot replay."""
    from repro.harness.campaign import sample_faults

    cfg = CampaignConfig()

    def run(workers):
        bound = get_scenario(cfg.workload).bind(cfg, 1)
        rcfg = ReplicationConfig(degree=cfg.degree, protocol="sdr")
        sched, plan, _mix = sample_faults(1, cfg, "sdr", respawnable=False)
        job = Job(
            cfg.n_ranks,
            cfg=rcfg,
            seed=1,
            detector=cfg.detector,
            fault_plan=plan,
            traffic=bound.traffic,
            parallel=ParallelConfig(workers=workers) if workers else None,
        )
        job.launch(bound.factory, **bound.kwargs)
        sched.apply(job, horizon=cfg.horizon)
        return job.run(until=cfg.horizon, allow_lost_ranks=True, audit=False)

    serial = run(0)
    fallback = run(2)
    assert "detector" in fallback.parallel["fallback"]
    assert fingerprint(fallback) == fingerprint(serial)


def test_zero_leak_balance_holds_globally_after_merge():
    """The merged result must re-derive the serial arena balance: the
    audit ran per shard, and the relay conservation (exports == imports)
    plus the merge compensation keep the global books closed."""
    res = _run("sdr", 16, workers=4, iters=2, nbytes=256)
    assert res.parallel["shards"] >= 2
    fab = res.fabric
    assert fab["frames_exported"] == fab["frames_imported"]
    # Same stranded attribution as serial (empty on a clean run).
    assert res.stranded_by_site == _run("sdr", 16, iters=2, nbytes=256).stranded_by_site


def _charge_until(mpi, when):
    """One CPU charge whose queue entry lands *exactly* on *when*."""
    now = mpi.sim.now
    charge = when - now
    while now + charge < when:
        charge = math.nextafter(charge, math.inf)
    while now + charge > when:
        charge = math.nextafter(charge, -math.inf)
    yield charge


def _collision_app(mpi, pairs, arrival=None, late_at=None):
    """Two senders each put one inter-node frame on the wire at the same
    instant; both arrive at *arrival*.  The first receiver's charge to
    *arrival* is pushed long **before** the inject, the second's just
    **after** it (at *late_at*), so the destination shard's cohort for
    *arrival* must read ``[charge, frame, frame, charge]`` — and each
    receiver checks its inbox the instant its charge fires, so a frame
    placed on the wrong side of either charge moves ``events``."""
    rank, dsts = mpi.rank, list(pairs.values())
    if rank in pairs:
        yield 3e-6
        yield from mpi.send(rank, dest=pairs[rank], tag=1)
    elif rank in dsts:
        req = yield from mpi.irecv(source=list(pairs)[dsts.index(rank)], tag=1)
        if arrival is not None:
            if rank == dsts[1]:
                yield from _charge_until(mpi, late_at)
            yield from _charge_until(mpi, arrival)
        yield from mpi.wait(req)
    else:
        yield 1e-5  # keep the collision window free of collective traffic
    return (yield from mpi.allreduce(rank, op="sum"))


@pytest.mark.parametrize(
    "pairs",
    [{3: 40, 11: 48}, {35: 40, 59: 48}],
    ids=["imported-frames", "locally-held-frames"],
)
def test_merge_rewrites_cohort_around_deferred_frames(pairs, monkeypatch):
    """64 ranks on 2 workers, built to take ``_merge_deferred``'s cohort
    *rewrite* (not the append) path: deferred frames land in a pending
    same-arrival cohort between an entry pushed before their inject and
    one pushed after it.  A spy proves the path was taken; the fingerprint
    proves the placement is the serial one."""
    from repro.network.fabric import Frame
    from repro.sim import shard

    def job(workers=0, **kwargs):
        cfg = ReplicationConfig(degree=1, protocol="native")
        job = Job(
            64,
            cfg=cfg,
            cluster=cluster_for(64, 1),
            parallel=ParallelConfig(workers=workers) if workers else None,
        )
        return job.launch(_collision_app, pairs=pairs, **kwargs)

    # Calibrate on the serial engine: when the two frames inject and land.
    flights = []

    def record(t, ev):
        if type(ev) is Frame and pairs.get(ev.src) == ev.dst:
            flights.append((ev.sent_at, t))

    probe = job()
    probe.sim.trace_hook = record
    probe.run()
    assert len(flights) == 2 and flights[0] == flights[1]
    inject, arrival = flights[0]
    timing = dict(arrival=arrival, late_at=inject + 1e-9)

    interior = mp.Value("i", 0)  # shared with the forked workers
    merge = shard._merge_deferred

    def spy(job, *args):
        cohorts = job.sim._cohorts
        before = {t: {id(ev) for _seq, ev in cohort} for t, cohort in cohorts.items()}
        merge(job, *args)
        for t, old in before.items():
            kept = [id(ev) in old for _seq, ev in cohorts[t]]
            if False in kept and kept[0] and kept[-1]:
                interior.value += 1

    monkeypatch.setattr(shard, "_merge_deferred", spy)
    serial = job(**timing).run()
    parallel = job(workers=2, **timing).run()
    assert parallel.parallel["fallback"] == [] and parallel.parallel["shards"] == 2
    assert interior.value == 1
    assert fingerprint(parallel) == fingerprint(serial)


# -------------------------------------------------------- merge placement
def _place_cohort_reference(sim, arrival, news, marks, reseq):
    """Pass 2 of ``_merge_deferred`` as it stood before PR 20 — every
    frame rescans the cohort from its head, stepping over the frames
    already placed: O(news x cohort) — kept as the placement oracle for
    :func:`repro.sim.shard._place_cohort`."""
    row = sim._cohorts.get(arrival)
    if row is None:
        row = sim._cohorts[arrival] = []
        heapq.heappush(sim._queue, arrival)
    merged = []
    for seq_e, ev in row:
        pushed_at = getattr(ev, "sent_at", None)
        if pushed_at is None:
            pushed_at = reseq.get(seq_e)
        if pushed_at is None:
            idx = bisect_left(marks, (seq_e,))
            pushed_at = sim._now if idx == len(marks) else marks[idx][1]
        merged.append((pushed_at, ev, seq_e, False))
    n_existing = len(merged)
    appended_only = True
    for rec in news:
        inject_time, frame, defer_seq = rec[0], rec[3], rec[7]
        pos = len(merged)
        for j, (pushed_at, _ev, seq_e, is_new) in enumerate(merged):
            if is_new or pushed_at < inject_time:
                continue
            if pushed_at == inject_time:
                if defer_seq is None:
                    raise _ShardTaint("same-instant push tie at shared arrival time")
                if seq_e <= defer_seq:
                    continue
            pos = j
            break
        if pos != len(merged):
            appended_only = False
        merged.insert(pos, (inject_time, frame, None, True))
    first = sim._seq + 1
    if appended_only:
        sim._seq += len(news)
        row.extend((seq, m[1]) for seq, m in enumerate(merged[n_existing:], first))
        return
    sim._seq += len(merged)
    for seq, (pushed_at, obj, _seq_e, is_new) in enumerate(merged, first):
        if not is_new and getattr(obj, "sent_at", None) is None:
            reseq[seq] = pushed_at
    row[:] = [(seq, m[1]) for seq, m in enumerate(merged, first)]


class _Charge:
    """A pending non-frame cohort entry: no ``sent_at``."""

    def __init__(self, label):
        self.label = label


class _Wire(_Charge):
    """A pending or deferred frame: carries its push time."""

    def __init__(self, label, sent_at):
        self.label = label
        self.sent_at = sent_at


ARRIVAL, NOW, MY_SHARD = 100.0, 5.0, 1


def _placement_case(existing, news):
    """Merge inputs from a drawn spec.  *existing* is a list of ``(dt,
    seq_gap, kind)`` steps along a push-time-monotone cohort (kind: frame,
    charge known by mark, or charge known by reseq); *news* a list of
    ``(inject_time, src_shard, defer_gap)``.  Returns ``(sim, news, marks,
    reseq)`` — fresh objects on every call, equal labels."""
    sim = Simulator()
    sim._now = NOW
    marks, reseq, row = [], {}, []
    t, seq = 0.0, 0
    for i, (dt, gap, kind) in enumerate(existing):
        if dt and seq:
            marks.append((seq, t))  # closes timestamp t: seqs up to here were pushed at t
        t = min(t + dt, NOW)
        seq += gap
        if kind == "frame":
            row.append((seq, _Wire(f"old{i}", t)))
        else:
            row.append((seq, _Charge(f"old{i}")))
            if kind == "reseq":
                reseq[seq] = t
    if t < NOW and seq:
        marks.append((seq, t))
    sim._seq = seq + 3
    if row:
        sim._cohorts[ARRIVAL] = row
        sim._queue.append(ARRIVAL)
    records, defer_seq = [], 0
    ordered = sorted((t, shard, k) for k, (t, shard, _gap) in enumerate(news))
    for n, (inject_time, shard, k) in enumerate(ordered):
        defer_seq += news[k][2]  # local snapshots never decrease along canonical order
        records.append(
            (inject_time, shard, n, _Wire(f"new{n}", inject_time), 0.0, 0.0, 0.0,
             defer_seq if shard == MY_SHARD else None)
        )  # fmt: skip
    return sim, records, marks, reseq


def _placement_outcome(place, existing, news):
    sim, records, marks, reseq = _placement_case(existing, news)
    try:
        place(sim, ARRIVAL, records, marks, reseq)
    except _ShardTaint as taint:
        return str(taint)
    return [(seq, ev.label) for seq, ev in sim._cohorts[ARRIVAL]], sim._seq, reseq, sim._queue


@settings(max_examples=400, deadline=None)
@given(
    existing=st.lists(
        st.tuples(
            st.sampled_from([0.0, 0.0, 1.0, 2.0]),
            st.integers(min_value=1, max_value=3),
            st.sampled_from(["frame", "mark", "reseq"]),
        ),
        max_size=8,
    ),
    news=st.lists(
        st.tuples(
            st.sampled_from([0.0, 1.0, 2.0, 3.0, 4.0, 5.0]),
            st.sampled_from([0, MY_SHARD, MY_SHARD, 2]),
            st.integers(min_value=0, max_value=6),
        ),
        min_size=1,
        max_size=6,
    ),
)
def test_linear_cohort_placement_equals_quadratic_reference(existing, news):
    """Same cohort list, same fresh seqs, same ``reseq`` updates and the
    same taint/no-taint as the scan it replaced, on push-time-monotone
    cohorts mixing frames and charges with local/imported news and
    same-instant ties."""
    assert _placement_outcome(_place_cohort, existing, news) == _placement_outcome(
        _place_cohort_reference, existing, news
    )


def test_imported_frame_taints_on_a_tie_an_earlier_local_frame_passed():
    """The case a naive two-pointer pass loses: a local frame passes a
    pending entry pushed at its own inject instant (lower seq — serially
    pushed first), consuming it; an imported frame of the same instant
    must still taint on that entry, not start its scan behind it."""
    existing = [(1.0, 1, "mark")]  # one charge, seq 1, pushed at t=1
    news = [(1.0, MY_SHARD, 5), (1.0, 2, 0)]  # local (snapshot 5 > seq 1), then imported
    for place in (_place_cohort, _place_cohort_reference):
        assert _placement_outcome(place, existing, news) == (
            "same-instant push tie at shared arrival time"
        )
    # without the imported frame the local one lands behind the charge
    cohort, seq, reseq, _ = _placement_outcome(_place_cohort, existing, news[:1])
    assert [label for _seq, label in cohort] == ["old0", "new0"] and reseq == {}


# ----------------------------------------------------------- shard planner
@settings(max_examples=20, deadline=None)
@given(
    n_ranks=st.sampled_from([4, 8, 16, 32]),
    workers=st.integers(min_value=1, max_value=8),
)
def test_plan_partition_is_valid(n_ranks, workers):
    """Every proc in exactly one shard, shards node-aligned and
    contiguous, never more shards than nodes or workers."""
    job, plan = _plan_for(n_ranks, workers)
    n_procs = job.rmap.n_procs
    seen = sorted(p for shard in plan.local_procs for p in shard)
    assert seen == list(range(n_procs))
    node_of = [job.placement.node_of(p) for p in range(n_procs)]
    n_nodes = len(set(node_of))
    assert 1 <= plan.n_shards <= min(workers, n_nodes)
    for p in range(n_procs):
        # Node alignment: a proc's shard is its node's shard.
        assert plan.shard_of_proc[p] == plan.shard_of_node[node_of[p]]


@settings(max_examples=150, deadline=None)
@given(
    degree=st.sampled_from([2, 3]),
    n_ranks=st.integers(min_value=8, max_value=256),
    workers=st.integers(min_value=1, max_value=8),
)
def test_plan_keeps_replicas_together_and_shards_balanced(degree, n_ranks, workers):
    """Over the paper's split-halves placement: an exact node-aligned
    partition, every shard within one node's procs of the ideal share, at
    most one rank range straddling each cut — and none at all (every
    replica of every rank in one shard) when the nodes are evenly filled
    and the shard count divides the nodes per replica set.  (Balance to a
    node and co-location cannot both hold otherwise: 4 nodes per set on 3
    shards has to cut 8 nodes 3/3/2.)"""
    cluster = cluster_for(n_ranks, degree)
    cores = cluster.cores_per_node
    placement = split_halves_placement(cluster, n_ranks, degree)
    rmap = ReplicaMap(n_ranks, degree)
    plan = ShardPlan.build(placement, rmap, workers)
    assert sorted(p for procs in plan.local_procs for p in procs) == list(range(rmap.n_procs))
    for p in range(rmap.n_procs):
        assert plan.shard_of_proc[p] == plan.shard_of_node[placement.node_of(p)]
    assert 1 <= plan.n_shards <= min(workers, cluster.nodes)
    share = rmap.n_procs / plan.n_shards
    assert all(abs(len(procs) - share) < cores for procs in plan.local_procs)
    straddled = {
        rank // cores
        for rank in range(n_ranks)
        if len({plan.shard_of_proc[p] for p in rmap.replicas_of(rank)}) > 1
    }
    assert len(straddled) < plan.n_shards
    if n_ranks % cores == 0 and (cluster.nodes // degree) % plan.n_shards == 0:
        assert not straddled


def test_unreplicated_plans_equal_the_node_range_plans():
    """Degree 1 hosts each rank once, so ordering nodes by lowest hosted
    rank is node order: the plans are exactly the ones the node-range
    planner produced (``shard_of_proc`` for 4..64 ranks x 1..8 workers,
    recorded on the commit before PR 20)."""
    recorded = json.loads((DATA / "shard_plans_degree1.json").read_text())
    assert len(recorded) == 61 * 8
    for key, digits in recorded.items():
        n_ranks, workers = map(int, key.split("x"))
        cluster = cluster_for(n_ranks, 1)
        placement = round_robin_placement(cluster, n_ranks)
        plan = ShardPlan.build(placement, ReplicaMap(n_ranks, 1), workers)
        assert "".join(map(str, plan.shard_of_proc)) == digits, key


def test_invalid_plan_raises_at_construction():
    """A plan checks itself when it is built, the planner's output included."""
    with pytest.raises(ValueError, match="shard 1 owns no processes"):
        ShardPlan(2, (0, 0), {0: 0}, ((0, 1), ()), None)
    with pytest.raises(ValueError, match="proc 1 appears in two shards"):
        ShardPlan(2, (0, 0), {0: 0, 1: 1}, ((0, 1), (1,)), None)
    with pytest.raises(ValueError, match="not contiguous"):
        ShardPlan(2, (1, 0), {0: 1, 1: 0}, ((1,), (0,)), None)
    assert ShardPlan(2, (0, 1), {0: 0, 1: 1}, ((0,), (1,)), 1e-6).n_shards == 2


def test_plan_lookahead_is_min_inter_node_latency():
    job, plan = _plan_for(16, 4)
    n_procs = job.rmap.n_procs
    nodes = sorted({job.placement.node_of(p) for p in range(n_procs)})
    expected = min(
        job.cluster.model_for(a, b).latency
        for i, a in enumerate(nodes)
        for b in nodes[i + 1 :]
    )
    assert plan.lookahead == expected
    assert plan.lookahead > 0


def test_single_shard_degenerate_falls_back_with_reason():
    """workers=1 (or a single populated node) cannot overlap anything:
    the run is the serial engine's, with the reason recorded."""
    serial = _run("sdr", 8, iters=1, nbytes=256)
    degenerate = _run("sdr", 8, workers=1, iters=1, nbytes=256)
    assert degenerate.parallel["shards"] == 1
    assert "single_shard" in degenerate.parallel["fallback"]
    assert fingerprint(degenerate) == fingerprint(serial)


@pytest.mark.parametrize("workers", [2.5, True, "2"])
def test_non_int_worker_count_refused(workers):
    """A float used to plan ``int(workers)`` shards and record the float as
    requested; ``True`` ran as one ``single_shard`` worker."""
    with pytest.raises(ValueError, match="workers must be an int >= 1"):
        ParallelConfig(workers=workers)


# --------------------------------------------------------- fallback honesty
def test_jitter_is_a_recorded_hazard():
    cfg = ReplicationConfig(degree=2, protocol="sdr")
    job = Job(
        8,
        cfg=cfg,
        cluster=cluster_for(8, 2),
        jitter=lambda: 1e-9,
        parallel=ParallelConfig(workers=2),
    )
    res = job.launch(ring_collectives, iters=1, nbytes=256).run()
    assert "jitter" in res.parallel["fallback"]


def test_stochastic_faults_are_a_recorded_hazard():
    # dup_p draws from the fault stream (a hazard) without losing
    # traffic, so the run still completes under replication.
    plan = FaultPlan(windows=(LinkFaultWindow(0.0, 4e-5, dup_p=0.5),))
    res = _run("sdr", 8, workers=2, fault_plan=plan, iters=1, nbytes=256)
    assert "stochastic_faults" in res.parallel["fallback"]


def test_classify_hazards_is_empty_for_a_clean_sharded_job():
    job, plan = _plan_for(16, 2)
    assert classify_hazards(job, plan) == []


@pytest.mark.parametrize("protocol", FANOUT_PROTOCOLS)
def test_replica_fanout_is_a_static_hazard_that_never_forks(protocol, monkeypatch):
    """mirror and redmpi put frames from different replica sets on one
    downlink at one instant by construction — every such run used to
    fork, taint within 16 windows and rerun serially.  The hazard is a
    protocol class attribute, decided before any worker exists."""
    from repro.sim import shard

    job, plan = _plan_for(16, 2, protocol=protocol)
    assert classify_hazards(job, plan) == ["replica_fanout"]
    monkeypatch.setattr(shard, "Pool", lambda *_: pytest.fail("a replica_fanout job forked workers"))
    serial = _run(protocol, 16, iters=2, nbytes=256)
    parallel = _run(protocol, 16, workers=2, iters=2, nbytes=256)
    assert parallel.parallel["fallback"] == ["replica_fanout"]
    assert parallel.parallel["windows"] == 0
    assert fingerprint(parallel) == fingerprint(serial)


def test_default_job_path_carries_no_parallel_metadata():
    """The serial path is untouched: no ParallelConfig, no metadata —
    goldens and sweeps observe exactly the pre-parallel JobResult."""
    res = _run("sdr", 8, iters=1, nbytes=256)
    assert res.parallel is None


def test_run_parallel_requires_launch():
    cfg = ReplicationConfig(degree=2, protocol="sdr")
    job = Job(8, cfg=cfg, cluster=cluster_for(8, 2), parallel=ParallelConfig(workers=2))
    with pytest.raises(RuntimeError, match="launch"):
        run_parallel(job)


def test_killed_shard_worker_raises_worker_died(monkeypatch):
    """A shard worker SIGKILLed mid-run (at its third barrier merge) ends
    the run with WorkerDied naming the shard and its exit code — no hang,
    no serial fallback, no live worker left behind."""
    import os
    import signal
    import time

    from repro.sim import shard
    from repro.sim.pool import WorkerDied

    merge = shard._merge_deferred
    merges = [0]  # per worker: each fork gets its own copy

    def killing_merge(job, *args):
        merges[0] += 1
        if job.fabric.shard_id == 1 and merges[0] == 3:
            os.kill(os.getpid(), signal.SIGKILL)
        return merge(job, *args)

    monkeypatch.setattr(shard, "_merge_deferred", killing_merge)
    t0 = time.monotonic()
    with pytest.raises(WorkerDied) as died:
        _run("sdr", 16, workers=2, iters=2, nbytes=256)
    assert time.monotonic() - t0 < 10
    assert died.value.wid == 1 and died.value.reason == "exit code -9"
    assert mp.active_children() == []


# ------------------------------------------------------ sharded error paths
@pytest.fixture
def merges(monkeypatch):
    """Counts the parent's shard merges: a sharded run that reached one
    truly sharded (a serial fallback never merges)."""
    from repro.sim import shard

    calls = []
    merge = shard._merge_results

    def spy(job, plan, *args, **kwargs):
        calls.append(plan.n_shards)
        return merge(job, plan, *args, **kwargs)

    monkeypatch.setattr(shard, "_merge_results", spy)
    return calls


def _raised(app, workers=0, crash=(), **run_kwargs):
    """What a 16-rank SDR job of *app* raises from ``Job.run``."""
    cfg = ReplicationConfig(degree=2, protocol="sdr")
    job = Job(
        16,
        cfg=cfg,
        cluster=cluster_for(16, 2),
        parallel=ParallelConfig(workers=workers) if workers else None,
    )
    job.launch(app)
    for rank, rep, at in crash:
        job.crash(rank, rep, at=at)
    with pytest.raises(Exception) as info:
        job.run(**run_kwargs)
    return info.value


def _ring_then(mpi, tail):
    total = yield from mpi.allreduce(mpi.rank, op="sum")
    yield from tail(mpi)
    return total


def _rank0_waits_forever(mpi):
    if mpi.rank == 0:
        yield from mpi.recv(source=mpi.size - 1, tag=99)


def test_sharded_deadlock_names_the_serial_blocked_set(merges):
    serial = _raised(lambda mpi: _ring_then(mpi, _rank0_waits_forever))
    sharded = _raised(lambda mpi: _ring_then(mpi, _rank0_waits_forever), workers=2)
    assert merges == [2]
    assert type(sharded) is type(serial) is DeadlockError
    assert sharded.blocked == serial.blocked == {"p0_0": "frame@0", "p1_0": "frame@16"}


LOST_RANK_3 = [(3, 0, 2e-5), (3, 1, 3e-5)]


def test_sharded_lost_rank_raises_the_serial_error(merges):
    """Every replica of rank 3 crashes: past the horizon the survivors are
    blocked on it, no deadlock — the lost-rank MpiError."""
    app = lambda mpi: ring_collectives(mpi, iters=3, nbytes=256)  # noqa: E731
    serial = _raised(app, crash=LOST_RANK_3, until=1e-4)
    sharded = _raised(app, workers=2, crash=LOST_RANK_3, until=1e-4)
    assert merges == [2]
    assert type(sharded) is type(serial) is MpiError
    assert str(sharded) == str(serial) == "application lost ranks [3]: every replica failed"


def test_sharded_lost_rank_allowed_equals_serial():
    serial = _run("sdr", 16, crash=LOST_RANK_3, iters=3, nbytes=256)
    parallel = _run("sdr", 16, workers=2, crash=LOST_RANK_3, iters=3, nbytes=256)
    assert parallel.parallel["fallback"] == [] and parallel.lost_ranks == [3]
    assert fingerprint(parallel) == fingerprint(serial)


def test_sharded_audit_leak_surfaces_as_assertion(monkeypatch, merges):
    def leak(job):
        raise AssertionError("frame arena leak: 1 acquired vs 0 released (planted)")

    monkeypatch.setattr(Job, "_assert_arenas_balanced", leak)
    app = lambda mpi: ring_collectives(mpi, iters=1, nbytes=256)  # noqa: E731
    serial = _raised(app)
    sharded = _raised(app, workers=2)
    assert merges == [2]
    assert type(sharded) is type(serial) is AssertionError
    assert str(serial) in str(sharded)


def _rank5_raises(exc_type, *args):
    def tail(mpi):
        if mpi.rank == 5:
            raise exc_type(*args)
        yield 1e-6

    return lambda mpi: _ring_then(mpi, tail)


def test_sharded_process_exception_keeps_its_type(merges):
    app = _rank5_raises(TruncationError, "message of 64 bytes truncated to 8")
    serial = _raised(app)
    sharded = _raised(app, workers=2)
    assert merges == [2]
    assert type(sharded) is type(serial) is TruncationError
    assert str(sharded) == str(serial)


def test_sharded_process_exception_that_cannot_cross_is_named(merges):
    """``DeadlockError(blocked)`` cannot be unpickled from its message."""
    app = _rank5_raises(DeadlockError, {"p5": "planted"})
    assert type(_raised(app)) is DeadlockError
    sharded = _raised(app, workers=2)
    assert merges == [2]
    assert type(sharded) is RuntimeError
    assert str(sharded).startswith("process 5 died in sharded run: DeadlockError: deadlock:")


def test_fingerprint_excludes_memory_policy_counters():
    """The fingerprint is the *scientific* output: arena/pool machinery
    counters (high-water marks, pool sizes, relay counts) are excluded, and
    no payload counter is in it: payloads have no job-wide table."""
    res = _run("sdr", 8, iters=1, nbytes=256)
    fp = fingerprint(res)
    assert not [key for key in fp if key.startswith("payload_")]
    for key in ("frame_high_water", "frames_exported", "frame_pool_size"):
        assert key not in fp["fabric"]
