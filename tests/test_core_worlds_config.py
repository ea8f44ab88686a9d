"""ReplicaMap arithmetic, ReplicationConfig validation, membership service."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.config import ReplicationConfig
from repro.core.membership import MembershipService, elect_substitute
from repro.core.worlds import ReplicaMap
from repro.harness.runner import Job, cluster_for
from repro.network.fabric import Fabric
from repro.network.topology import Cluster, split_halves_placement
from repro.sim.kernel import Simulator


class TestReplicaMap:
    def test_replica_major_layout(self):
        # paper Fig. 6 / §4.2: proc = rep * n + rank
        rmap = ReplicaMap(n_ranks=4, degree=2)
        assert rmap.phys(2, 0) == 2
        assert rmap.phys(2, 1) == 6
        assert rmap.replicas_of(3) == [3, 7]

    def test_roundtrip(self):
        rmap = ReplicaMap(5, 3)
        for proc in range(rmap.n_procs):
            assert rmap.phys(rmap.rank_of(proc), rmap.rep_of(proc)) == proc

    def test_bounds_checked(self):
        rmap = ReplicaMap(4, 2)
        with pytest.raises(ValueError):
            rmap.phys(4, 0)
        with pytest.raises(ValueError):
            rmap.phys(0, 2)
        with pytest.raises(ValueError):
            rmap.rank_of(8)

    @given(n=st.integers(1, 50), r=st.integers(1, 4))
    def test_property_bijection(self, n, r):
        rmap = ReplicaMap(n, r)
        seen = set()
        for rank in range(n):
            for rep in range(r):
                seen.add(rmap.phys(rank, rep))
        assert seen == set(range(n * r))

    @given(n=st.integers(1, 50), r=st.integers(1, 4))
    def test_rep_bases_are_the_phys_arithmetic(self, n, r):
        rmap = ReplicaMap(n, r)
        for rank in range(n):
            for rep in range(r):
                assert rmap.rep_bases[rep] + rank == rmap.phys(rank, rep)

    def test_rep_bases_outside_equality_and_repr(self):
        a, b = ReplicaMap(4, 2), ReplicaMap(4, 2)
        assert a.rep_bases == (0, 4)
        object.__setattr__(b, "rep_bases", ())
        assert a == b and hash(a) == hash(b)
        assert repr(a) == "ReplicaMap(n_ranks=4, degree=2)"

    @pytest.mark.parametrize(
        "n_ranks, degree, message",
        [
            (True, 2, "n_ranks must be an integer, got True"),
            (4, 2.0, "degree must be an integer, got 2.0"),
            (4.0, 2, "n_ranks must be an integer, got 4.0"),
            (4, False, "degree must be an integer, got False"),
        ],
    )
    def test_non_integral_sizes_refused(self, n_ranks, degree, message):
        with pytest.raises(ValueError, match=message):
            ReplicaMap(n_ranks, degree)

    def test_bool_job_size_refused(self):
        # Job(True) used to run a one-rank job
        with pytest.raises(ValueError, match="n_ranks must be an integer, got True"):
            Job(True)

    def test_numpy_integer_sizes_accepted(self):
        rmap = ReplicaMap(np.int64(4), np.int64(2))
        assert rmap == ReplicaMap(4, 2) and type(rmap.n_procs) is int
        assert rmap.rep_bases == (0, 4)


class TestConfig:
    def test_defaults(self):
        cfg = ReplicationConfig()
        assert cfg.degree == 2 and cfg.protocol == "sdr"

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError):
            ReplicationConfig(protocol="raft")

    def test_native_requires_degree_one(self):
        with pytest.raises(ValueError):
            ReplicationConfig(degree=2, protocol="native")

    def test_replication_requires_degree_two_plus(self):
        with pytest.raises(ValueError):
            ReplicationConfig(degree=1, protocol="sdr")

    def test_negative_detection_delay_rejected(self):
        with pytest.raises(ValueError):
            ReplicationConfig(detection_delay=-1.0)


def _membership(n_ranks=2, degree=2, delay=5e-6):
    sim = Simulator()
    cluster = Cluster(nodes=degree * 2, cores_per_node=max(1, n_ranks // 2))
    placement = split_halves_placement(cluster, n_ranks, degree)
    fabric = Fabric(sim, placement)
    rmap = ReplicaMap(n_ranks, degree)
    return sim, fabric, MembershipService(sim, fabric, rmap, detection_delay=delay)


class TestMembership:
    def test_crash_marks_dead(self):
        sim, fabric, svc = _membership()
        svc.crash(3)
        assert not svc.is_alive(3)
        assert svc.failed == [3]

    def test_notifications_arrive_after_detection_delay(self):
        sim, fabric, svc = _membership(delay=7e-6)
        svc.crash(3)
        sim.run()
        for proc in (0, 1, 2):
            frames = list(fabric.endpoint(proc).inbox)
            assert len(frames) == 1
            assert frames[0].kind == "svc"
            assert (frames[0].ctrl_key, frames[0].data) == ("failure", 3)
            assert frames[0].arrived_at == -1.0 or True
        assert sim.now == 7e-6

    def test_dead_process_not_notified(self):
        sim, fabric, svc = _membership()
        svc.crash(3)
        sim.run()
        assert list(fabric.endpoint(3).inbox) == []

    def test_substitute_election_lowest_alive(self):
        sim, fabric, svc = _membership(n_ranks=2, degree=2)
        assert svc.substitute_rep(1) == 0
        svc.crash(1)  # p^0_1
        assert svc.substitute_rep(1) == 1
        svc.crash(3)  # p^1_1
        assert svc.substitute_rep(1) is None

    def test_rank_lost_detection(self):
        sim, fabric, svc = _membership()
        lost = []
        svc.on_rank_lost.append(lost.append)
        svc.crash(1)
        assert lost == []
        svc.crash(3)
        assert lost == [1]
        assert svc.lost_ranks == {1}

    def test_recovery_reverses_loss(self):
        sim, fabric, svc = _membership()
        svc.crash(3)
        svc.announce_recovery(3)
        assert svc.is_alive(3)
        assert 3 not in svc.failed

    def test_elect_substitute_helper(self):
        rmap = ReplicaMap(2, 3)
        alive = {0, 1, 4, 5}  # rank 1: replicas 1 (dead at rep0? phys(1,0)=1 alive), ...
        fn = lambda p: p in alive
        assert elect_substitute(rmap, 1, fn) == 0
        assert elect_substitute(rmap, 0, fn) == 0
        # phys(0, 1) == 2, so replica index 1 is the lowest alive
        assert elect_substitute(rmap, 0, lambda p: p in {2, 4}) == 1


class TestJobLostRanks:
    def test_all_replicas_dead_raises(self):
        import numpy as np

        def app(mpi, iters=50):
            for i in range(iters):
                right = (mpi.rank + 1) % mpi.size
                left = (mpi.rank - 1) % mpi.size
                yield from mpi.sendrecv(np.array([1.0]), dest=right, source=left)
                yield from mpi.compute(5e-6)

        cfg = ReplicationConfig(degree=2, protocol="sdr")
        job = Job(2, cfg=cfg, cluster=cluster_for(2, 2)).launch(app)
        job.crash(1, 0, at=20e-6)
        job.crash(1, 1, at=40e-6)
        with pytest.raises(Exception) as err:
            job.run()
        assert "lost" in str(err.value) or "deadlock" in str(err.value)
