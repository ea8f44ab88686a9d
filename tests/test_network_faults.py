"""Network fault model: the seeded adversary the reliable-wire assumption
is tested against (drop/dup/delay windows, healing partitions).

Every probabilistic decision draws from the job's dedicated ``net.faults``
rng stream, so a faulty run is reproducible from its seed; an absent (or
empty) plan leaves the fabric byte-identical to the reliable wire.  Drops
route through the strand accounting — ``link_drop`` and ``partition`` are
first-class sites in the zero-leak balance, never silent losses.
"""

import numpy as np
import pytest

from repro.core.config import ReplicationConfig
from repro.harness.runner import Job, cluster_for
from repro.network.model import (
    FaultPlan,
    FaultPlanError,
    LinkFaultWindow,
    PartitionWindow,
)


def pingpong(mpi, rounds=6):
    peer = 1 - mpi.rank
    acc = 0.0
    for k in range(rounds):
        if mpi.rank == 0:
            yield from mpi.send(np.array([float(k)]), dest=peer, tag=7)
            got, _ = yield from mpi.recv(source=peer, tag=7)
        else:
            got, _ = yield from mpi.recv(source=peer, tag=7)
            yield from mpi.send(got, dest=peer, tag=7)
        acc += float(got[0])
    return acc


def delayed_pingpong(mpi, rounds=4, after=60e-6):
    yield from mpi.compute(after)
    acc = yield from pingpong(mpi, rounds=rounds)
    return acc


def _native_job(plan=None, n=2, seed=0):
    cfg = ReplicationConfig(degree=1, protocol="native")
    return Job(
        n, cfg=cfg, cluster=cluster_for(n, 1, cores_per_node=1), seed=seed, fault_plan=plan
    )


def _sdr_job(plan=None, n=2, seed=0):
    cfg = ReplicationConfig(degree=2, protocol="sdr")
    return Job(
        n, cfg=cfg, cluster=cluster_for(n, 2, cores_per_node=1), seed=seed, fault_plan=plan
    )


class TestFaultPlanValidation:
    def test_inverted_window_rejected(self):
        with pytest.raises(FaultPlanError, match="start < end"):
            LinkFaultWindow(5e-6, 2e-6, drop_p=0.1)

    def test_probability_out_of_range_rejected(self):
        with pytest.raises(FaultPlanError, match="drop_p"):
            LinkFaultWindow(0.0, 1e-6, drop_p=1.5)
        with pytest.raises(FaultPlanError, match="dup_p"):
            LinkFaultWindow(0.0, 1e-6, dup_p=-0.1)

    def test_negative_delay_rejected(self):
        with pytest.raises(FaultPlanError, match="delay"):
            LinkFaultWindow(0.0, 1e-6, delay=-1e-6)

    def test_no_effect_window_rejected(self):
        with pytest.raises(FaultPlanError, match="no effect"):
            LinkFaultWindow(0.0, 1e-6)

    def test_empty_node_filter_rejected(self):
        with pytest.raises(FaultPlanError, match="src_nodes"):
            LinkFaultWindow(0.0, 1e-6, drop_p=0.5, src_nodes=())

    def test_partition_needs_groups(self):
        with pytest.raises(FaultPlanError, match="node group"):
            PartitionWindow(0.0, 1e-6)
        with pytest.raises(FaultPlanError, match="not be empty"):
            PartitionWindow(0.0, 1e-6, groups=((),))

    def test_partition_groups_must_be_disjoint(self):
        with pytest.raises(FaultPlanError, match="more than one"):
            PartitionWindow(0.0, 1e-6, groups=((0, 1), (1, 2)))

    def test_plan_validate_chains_and_bool(self):
        assert not FaultPlan()
        plan = FaultPlan(windows=(LinkFaultWindow(0.0, 1e-6, dup_p=0.5),))
        assert plan
        with pytest.raises(FaultPlanError):
            FaultPlan(windows=(LinkFaultWindow(0.0, 1e-6),))


class TestDefaultOff:
    def test_empty_plan_is_byte_identical_to_no_plan(self):
        baseline = _native_job(plan=None).launch(pingpong).run()
        empty = _native_job(plan=FaultPlan()).launch(pingpong).run()
        assert empty.runtime == baseline.runtime
        assert empty.events == baseline.events
        assert empty.fabric["frames"] == baseline.fabric["frames"]
        assert empty.app_results == baseline.app_results


class TestDropWindows:
    def test_certain_drop_is_stranded_and_wedges(self):
        plan = FaultPlan(windows=(LinkFaultWindow(0.0, 1e-3, drop_p=1.0),))
        job = _native_job(plan=plan).launch(pingpong)
        res = job.run(until=1e-3, audit=True)
        assert res.fabric["fault_drops"] >= 1
        assert res.stranded_by_site["link_drop"]["frames"] >= 1
        assert res.finish_times == {}  # both ranks blocked: no retransmission path

    def test_drops_balance_the_arena_books(self):
        plan = FaultPlan(windows=(LinkFaultWindow(0.0, 1e-3, drop_p=1.0),))
        job = _native_job(plan=plan).launch(pingpong)
        job.run(until=1e-3, audit=True)  # audit() raises on any imbalance
        sites = job._strand_attribution()
        frame_sum = sum(cell["frames"] for cell in sites.values())
        assert frame_sum == job.fabric.stats()["frames_stranded"]


class TestDupWindows:
    def test_replicated_protocol_absorbs_duplicates(self):
        plan = FaultPlan(windows=(LinkFaultWindow(0.0, 1e-3, dup_p=1.0),))
        clean = _sdr_job().launch(pingpong).run()
        faulty = _sdr_job(plan=plan).launch(pingpong).run()
        assert faulty.fabric["fault_dups"] >= 1
        # each clone is a message of its own: one more acquire apiece
        dups = faulty.fabric["fault_dups"]
        assert faulty.fabric["frames_acquired"] >= clean.fabric["frames_acquired"] + dups
        # per-channel dedup drops every injected clone; results untouched
        assert faulty.stat_total("duplicates_dropped") >= 1
        assert faulty.app_results == clean.app_results


class TestDelayWindows:
    def test_delay_spikes_slow_the_run_but_preserve_results(self):
        plan = FaultPlan(windows=(LinkFaultWindow(0.0, 1e-3, delay=5e-6),))
        clean = _native_job().launch(pingpong).run()
        slow = _native_job(plan=plan).launch(pingpong).run()
        assert slow.fabric["fault_delays"] >= 1
        assert slow.runtime > clean.runtime
        assert slow.app_results == clean.app_results


class TestPartitions:
    def test_partition_strands_inter_group_frames(self):
        plan = FaultPlan(
            partitions=(PartitionWindow(0.0, 1e-3, groups=((0,), (1,))),)
        )
        job = _native_job(plan=plan).launch(pingpong)
        res = job.run(until=1e-3, audit=True)
        assert res.stranded_by_site["partition"]["frames"] >= 1
        assert res.finish_times == {}  # frames lost in the window stay lost

    def test_partition_heals(self):
        # All traffic starts after the window closes: nothing is lost.
        plan = FaultPlan(
            partitions=(PartitionWindow(0.0, 50e-6, groups=((0,), (1,))),)
        )
        clean = _native_job().launch(delayed_pingpong).run()
        healed = _native_job(plan=plan).launch(delayed_pingpong).run()
        assert healed.fabric["frames_stranded"] == 0
        assert healed.app_results == clean.app_results


class TestSeededReproducibility:
    def test_same_seed_same_faulty_run(self):
        plan = FaultPlan(
            windows=(LinkFaultWindow(0.0, 1e-3, drop_p=0.3, dup_p=0.3),)
        )
        runs = []
        for _ in range(2):
            job = _sdr_job(plan=plan, seed=7).launch(pingpong)
            res = job.run(until=1e-3, audit=True)
            runs.append(
                (
                    res.events,
                    res.fabric["fault_drops"],
                    res.fabric["fault_dups"],
                    res.stranded_by_site,
                    sorted(res.app_results.items()),
                )
            )
        assert runs[0] == runs[1]

    def test_different_seed_different_draws(self):
        plan = FaultPlan(
            windows=(LinkFaultWindow(0.0, 1e-3, drop_p=0.5, dup_p=0.5),)
        )
        outcomes = set()
        for seed in range(4):
            job = _sdr_job(plan=plan, seed=seed).launch(pingpong)
            res = job.run(until=1e-3, audit=True)
            outcomes.add((res.fabric["fault_drops"], res.fabric["fault_dups"]))
        assert len(outcomes) > 1
