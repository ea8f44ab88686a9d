"""Conservative sharded-parallel execution: byte-identical to serial.

The multi-core engine (:mod:`repro.sim.shard`) partitions processes by
node into per-shard Simulators, synchronized by conservative windows on
the minimum inter-shard wire latency.  Its entire contract is *byte
identity*: :func:`repro.sim.shard.fingerprint` of a sharded run must
equal the serial engine's for every protocol, worker count, crash
schedule and horizon — and whenever the shards cannot prove they can
replay the serial interleaving (drain races, tied cross-shard downlink
contention, hazard features), the run falls back to the serial engine
with the reasons recorded in ``result.parallel["fallback"]``.

Three layers pinned here:

* **fingerprint equivalence** — hypothesis-driven serial-vs-sharded runs
  across all five protocols, plus crash/failover, run-until horizons,
  delay-only fault plans, open-loop traffic, and the fault-campaign
  fallback path;
* **shard planner** — partition validity (every proc exactly once,
  node-aligned, contiguous), lookahead = minimum inter-node latency,
  and the single-shard degenerate case;
* **fallback honesty** — hazard features (jitter, stochastic faults,
  detector) and single-node placements run serially with the reason
  recorded, and the default ``Job`` path carries no parallel metadata
  at all.
"""

from __future__ import annotations

import math
import multiprocessing as mp

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.config import ReplicationConfig
from repro.harness.campaign import CampaignConfig
from repro.harness.runner import Job, cluster_for
from repro.network.model import FaultPlan, LinkFaultWindow
from repro.scenarios import get_scenario, ring_collectives
from repro.sim.shard import (
    ParallelConfig,
    ShardPlan,
    classify_hazards,
    fingerprint,
    run_parallel,
)

PROTOCOLS = ["native", "sdr", "mirror", "leader", "redmpi"]


def _run(
    protocol: str,
    n_ranks: int,
    workers: int = 0,
    crash=(),
    until=None,
    fault_plan=None,
    **kwargs,
):
    if protocol == "native":
        cfg = ReplicationConfig(degree=1, protocol="native")
    else:
        cfg = ReplicationConfig(degree=2, protocol=protocol)
    job = Job(
        n_ranks,
        cfg=cfg,
        cluster=cluster_for(n_ranks, cfg.degree),
        fault_plan=fault_plan,
        parallel=ParallelConfig(workers=workers) if workers else None,
    )
    job.launch(ring_collectives, **kwargs)
    for rank, rep, at in crash:
        job.crash(rank, rep, at=at)
    return job.run(until=until, allow_lost_ranks=bool(crash))


def _plan_for(n_ranks: int, workers: int, protocol: str = "sdr"):
    degree = 1 if protocol == "native" else 2
    cfg = ReplicationConfig(degree=degree, protocol=protocol)
    job = Job(n_ranks, cfg=cfg, cluster=cluster_for(n_ranks, degree))
    plan = ShardPlan.build(job.placement, workers)
    plan.validate()
    return job, plan


# ------------------------------------------------------- equivalence suite
@settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    protocol=st.sampled_from(PROTOCOLS),
    n_ranks=st.sampled_from([8, 16]),
    workers=st.integers(min_value=2, max_value=4),
    iters=st.integers(min_value=1, max_value=2),
)
def test_sharded_fingerprint_equals_serial(protocol, n_ranks, workers, iters):
    """The load-bearing property: any protocol, size, worker count and
    iteration depth produces the exact serial fingerprint — whether the
    run truly sharded or conservatively fell back."""
    serial = _run(protocol, n_ranks, iters=iters, nbytes=256)
    parallel = _run(protocol, n_ranks, workers=workers, iters=iters, nbytes=256)
    assert parallel.parallel is not None
    assert fingerprint(parallel) == fingerprint(serial)


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


def test_anysource_receives_fall_back_serial():
    """ANY_SOURCE matching is order-sensitive at equal timestamps in ways
    deferred-frame seqs cannot reproduce: the worker taints and the run
    falls back — byte-identical by construction, reason recorded."""
    from repro.scenarios import anysource_fanin

    cfg = ReplicationConfig(degree=2, protocol="sdr")
    results = []
    for workers in (0, 2):
        job = Job(
            16,
            cfg=cfg,
            cluster=cluster_for(16, cfg.degree),
            parallel=ParallelConfig(workers=workers) if workers else None,
        )
        job.launch(anysource_fanin, rounds=4)
        results.append(job.run())
    serial, parallel = results
    assert any("any-source" in r for r in parallel.parallel["fallback"])
    assert fingerprint(parallel) == fingerprint(serial)


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
    plan = FaultPlan(windows=(LinkFaultWindow(0.0, 4e-5, delay=5e-6),)).validate()
    serial = _run("sdr", 16, fault_plan=plan, iters=2, nbytes=256)
    parallel = _run("sdr", 16, workers=2, fault_plan=plan, iters=2, nbytes=256)
    assert parallel.parallel["fallback"] == []
    assert parallel.parallel["shards"] == 2
    assert fingerprint(parallel) == fingerprint(serial)


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
    assert fab["envs_exported"] == fab["envs_imported"]
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
    plan = FaultPlan(windows=(LinkFaultWindow(0.0, 4e-5, dup_p=0.5),)).validate()
    res = _run("sdr", 8, workers=2, fault_plan=plan, iters=1, nbytes=256)
    assert "stochastic_faults" in res.parallel["fallback"]


def test_classify_hazards_is_empty_for_a_clean_sharded_job():
    job, plan = _plan_for(16, 2)
    assert classify_hazards(job, plan) == []


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


def test_fingerprint_excludes_memory_policy_counters():
    """The fingerprint is the *scientific* output: arena/pool machinery
    counters (high-water marks, pool sizes, relay counts) and the
    interner hit/miss split are excluded, their engine-invariant sum
    (`payload_lookups`) kept."""
    res = _run("sdr", 8, iters=1, nbytes=256)
    fp = fingerprint(res)
    assert "payload_lookups" in fp
    assert "payload_interned" not in fp
    for key in ("frame_high_water", "frames_exported", "frame_pool_size"):
        assert key not in fp["fabric"]
