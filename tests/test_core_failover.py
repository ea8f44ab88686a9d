"""Crash/failover scenarios (Algorithm 1 lines 18-35, Fig. 3)."""

import numpy as np
import pytest

from repro.core.config import ReplicationConfig
from repro.harness.faults import CrashSpec, FaultSchedule
from repro.harness.runner import Job, cluster_for


def exchange_loop(mpi, iters=50, compute=1e-6):
    """Fig. 3's pattern: rank 1 sends, rank 0 answers, repeatedly."""
    total = 0.0
    for it in range(iters):
        if mpi.rank == 1:
            yield from mpi.send(np.array([float(it)]), dest=0, tag=1)
            got, _ = yield from mpi.recv(source=0, tag=2)
        else:
            got, _ = yield from mpi.recv(source=1, tag=1)
            yield from mpi.send(np.array([2.0 * it]), dest=1, tag=2)
        total += float(got[0])
        yield from mpi.compute(compute)
    return total


def _expected(iters=50):
    return {0: sum(float(i) for i in range(iters)), 1: sum(2.0 * i for i in range(iters))}


def _run_with_crashes(crashes, iters=50, n_ranks=2):
    cfg = ReplicationConfig(degree=2, protocol="sdr")
    job = Job(n_ranks, cfg=cfg, cluster=cluster_for(n_ranks, 2, cores_per_node=1))
    job.launch(exchange_loop, iters=iters)
    for rank, rep, at in crashes:
        job.crash(rank, rep, at=at)
    return job, job.run()


class TestFig3:
    @pytest.mark.parametrize("crash_at", [10e-6, 60e-6, 120e-6])
    def test_single_crash_application_completes_correctly(self, crash_at):
        job, res = _run_with_crashes([(1, 1, crash_at)])
        want = _expected()
        for proc, val in res.app_results.items():
            assert val == want[job.rmap.rank_of(proc)]
        # the crashed process did not finish
        assert job.rmap.phys(1, 1) not in res.app_results
        assert len(res.app_results) == 3

    def test_substitute_resends_unacked_messages(self):
        job, res = _run_with_crashes([(1, 1, 60e-6)])
        # p^0_1 must have resent whatever p^1_0 was missing
        sub = job.protocols[job.rmap.phys(1, 0)]
        assert sub.failovers_handled >= 1
        assert res.stat_total("resends") >= 1

    def test_survivor_stops_sending_to_dead_replica(self):
        job, res = _run_with_crashes([(1, 1, 60e-6)])
        peer = job.protocols[job.rmap.phys(0, 1)]  # p^1_0
        dead = job.rmap.phys(1, 1)
        assert dead not in peer.physical_dests.get(1, [])

    def test_substitute_adopts_bereaved_destinations(self):
        job, res = _run_with_crashes([(1, 1, 60e-6)])
        sub = job.protocols[job.rmap.phys(1, 0)]  # p^0_1 elected
        assert sub.substitute[1] == 0
        # it now also sends to p^1_0 (the bereaved world-1 peer)
        assert job.rmap.phys(0, 1) in sub.physical_dests.get(0, [])

    def test_crash_of_replica_zero(self):
        """Election must pick replica 1 when replica 0 dies."""
        job, res = _run_with_crashes([(1, 0, 60e-6)])
        want = _expected()
        for proc, val in res.app_results.items():
            assert val == want[job.rmap.rank_of(proc)]
        survivor = job.protocols[job.rmap.phys(1, 1)]
        assert survivor.substitute[0] == 1

    def test_two_crashes_on_different_ranks(self):
        job, res = _run_with_crashes([(1, 1, 40e-6), (0, 0, 90e-6)])
        want = _expected()
        for proc, val in res.app_results.items():
            assert val == want[job.rmap.rank_of(proc)]
        assert len(res.app_results) == 2  # one survivor per rank

    def test_crash_during_rendezvous(self):
        """Large (rendezvous) messages in flight toward the dead process
        must be cancelled, not wedge the sender."""

        def app(mpi, iters=10):
            big = np.zeros(8192)  # 64 KiB > eager limit
            for it in range(iters):
                if mpi.rank == 1:
                    yield from mpi.send(big, dest=0, tag=1)
                    yield from mpi.recv(source=0, tag=2)
                else:
                    yield from mpi.recv(source=1, tag=1)
                    yield from mpi.send(big, dest=1, tag=2)
            return it

        cfg = ReplicationConfig(degree=2, protocol="sdr")
        job = Job(2, cfg=cfg, cluster=cluster_for(2, 2, cores_per_node=1))
        job.launch(app)
        job.crash(1, 1, at=100e-6)
        res = job.run()
        assert all(v == 9 for v in res.app_results.values())


class TestCollectivesUnderFailure:
    def test_allreduce_survives_replica_crash(self):
        def app(mpi, iters=30):
            acc = 0.0
            for it in range(iters):
                acc = yield from mpi.allreduce(float(mpi.rank + it), op="sum")
                yield from mpi.compute(2e-6)
            return acc

        cfg = ReplicationConfig(degree=2, protocol="sdr")
        job = Job(4, cfg=cfg, cluster=cluster_for(4, 2))
        job.launch(app)
        job.crash(2, 1, at=80e-6)
        res = job.run()
        want = sum(r + 29 for r in range(4))
        assert all(v == want for v in res.app_results.values())

    def test_anysource_app_survives_crash(self):
        def app(mpi, rounds=20):
            total = 0.0
            for r in range(rounds):
                if mpi.rank == 0:
                    for _ in range(mpi.size - 1):
                        d, st = yield from mpi.recv(source=mpi.ANY_SOURCE, tag=3)
                        total += float(d[0])
                    for dst in range(1, mpi.size):
                        yield from mpi.send(np.array([total]), dest=dst, tag=4)
                else:
                    yield from mpi.send(np.array([float(mpi.rank)]), dest=0, tag=3)
                    d, _ = yield from mpi.recv(source=0, tag=4)
                    total = float(d[0])
            return total

        cfg = ReplicationConfig(degree=2, protocol="sdr")
        job = Job(3, cfg=cfg, cluster=cluster_for(3, 2))
        job.launch(app)
        job.crash(0, 1, at=100e-6)
        res = job.run()
        vals = set(res.app_results.values())
        assert len(vals) == 1  # all survivors agree


class TestFaultSchedule:
    def test_schedule_applies_all_crashes(self):
        sched = FaultSchedule().crash(1, 1, 40e-6).crash(0, 0, 90e-6)
        assert len(sched) == 2
        cfg = ReplicationConfig(degree=2, protocol="sdr")
        job = Job(2, cfg=cfg, cluster=cluster_for(2, 2, cores_per_node=1))
        job.launch(exchange_loop, iters=50)
        sched.apply(job)
        res = job.run()
        want = _expected()
        for proc, val in res.app_results.items():
            assert val == want[job.rmap.rank_of(proc)]

    def test_crashspec_is_frozen(self):
        spec = CrashSpec(1, 1, 2.0)
        with pytest.raises(Exception):
            spec.rank = 2  # type: ignore[misc]
