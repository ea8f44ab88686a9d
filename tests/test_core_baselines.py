"""Comparator protocols: mirror (MR-MPI), leader-based (rMPI), redMPI."""

import numpy as np
import pytest

from repro.core.config import ReplicationConfig
from repro.harness.runner import Job, cluster_for


def _job(protocol, n_ranks=2, degree=2, **kwargs):
    cfg = ReplicationConfig(degree=degree, protocol=protocol, **kwargs)
    return Job(n_ranks, cfg=cfg, cluster=cluster_for(n_ranks, degree, cores_per_node=1))


def stream(mpi, n=10):
    if mpi.rank == 0:
        for i in range(n):
            yield from mpi.send(np.array([float(i)]), dest=1, tag=1)
    else:
        out = []
        for _ in range(n):
            d, _ = yield from mpi.recv(source=0, tag=1)
            out.append(float(d[0]))
        return out


class TestMirror:
    def test_correct_delivery_with_duplicates_dropped(self):
        job = _job("mirror")
        res = job.launch(stream, n=10).run()
        for proc in (1, 3):
            assert res.app_results[proc] == [float(i) for i in range(10)]
        # each receiver saw r copies and dropped the extras; the very last
        # duplicates may still be undrained when the app exits
        assert 18 <= res.stat_total("duplicates_dropped") <= 20

    def test_message_complexity_is_q_r_squared(self):
        """§2.4: mirror sends O(q·r²) application messages vs parallel O(q·r)."""
        mirror = _job("mirror").launch(stream, n=10).run()
        sdr = _job("sdr").launch(stream, n=10).run()
        mirror_data = mirror.fabric["by_kind"].get("eager", 0)
        sdr_data = sdr.fabric["by_kind"].get("eager", 0)
        assert mirror_data == 40  # 10 x r^2
        assert sdr_data == 20  # 10 x r
        # mirror moves r x the application payload bytes (acks are tiny in
        # comparison once payloads are non-trivial — the ablation bench
        # shows this at realistic sizes)

    def test_no_acks_in_mirror(self):
        res = _job("mirror").launch(stream, n=5).run()
        assert res.stat_total("acks_sent") == 0

    def test_mirror_survives_crash_without_resend(self):
        def app(mpi, iters=40):
            total = 0.0
            for it in range(iters):
                if mpi.rank == 0:
                    yield from mpi.send(np.array([float(it)]), dest=1, tag=1)
                else:
                    d, _ = yield from mpi.recv(source=0, tag=1)
                    total += float(d[0])
                yield from mpi.compute(1e-6)
            return total

        job = _job("mirror")
        job.launch(app)
        job.crash(0, 1, at=40e-6)
        res = job.run()
        want = sum(range(40))
        for proc in (1, 3):
            assert res.app_results[proc] == want

    def test_triple_replication(self):
        job = _job("mirror", degree=3)
        res = job.launch(stream, n=4).run()
        assert res.fabric["by_kind"].get("eager", 0) == 4 * 9  # q * r^2


def anysource_app(mpi, rounds=6):
    """rank 0 collects from everyone with ANY_SOURCE then answers."""
    if mpi.rank == 0:
        total = 0.0
        for r in range(rounds):
            for _ in range(mpi.size - 1):
                d, st = yield from mpi.recv(source=mpi.ANY_SOURCE, tag=2)
                total += float(d[0])
            for dst in range(1, mpi.size):
                yield from mpi.send(np.array([total]), dest=dst, tag=3)
        return total
    acc = 0.0
    for r in range(rounds):
        yield from mpi.send(np.array([float(mpi.rank * (r + 1))]), dest=0, tag=2)
        d, _ = yield from mpi.recv(source=0, tag=3)
        acc = float(d[0])
    return acc


class TestLeader:
    def test_anysource_correctness(self):
        job = _job("leader", n_ranks=3)
        res = job.launch(anysource_app).run()
        vals = {res.app_results[p] for p in res.app_results}
        assert len(vals) == 1  # every replica of every rank agrees

    def test_leader_broadcasts_decisions(self):
        job = _job("leader", n_ranks=3)
        res = job.launch(anysource_app).run()
        # 6 rounds x 2 anonymous receives at rank 0's leader
        decisions = res.stat_total("decisions_sent")
        assert decisions == 12

    def test_followers_defer_and_pile_up_unexpected(self):
        """§3.1: followers post receives late -> unexpected messages."""
        leader = _job("leader", n_ranks=3).launch(anysource_app).run()
        sdr = _job("sdr", n_ranks=3).launch(anysource_app).run()
        assert leader.stat_total("unexpected_count") > sdr.stat_total("unexpected_count")

    def test_leader_slower_than_sdr_on_anysource(self):
        """The Fig. 2 critical-path argument, as runtimes."""
        leader = _job("leader", n_ranks=3).launch(anysource_app, rounds=20).run()
        sdr = _job("sdr", n_ranks=3).launch(anysource_app, rounds=20).run()
        assert leader.runtime > sdr.runtime

    def test_specific_source_takes_fast_path(self):
        job = _job("leader")
        res = job.launch(stream, n=8).run()
        assert res.app_results[1] == [float(i) for i in range(8)]
        assert res.stat_total("decisions_sent") == 0

    def test_deterministic_app_same_cost_as_sdr(self):
        leader = _job("leader").launch(stream, n=20).run()
        sdr = _job("sdr").launch(stream, n=20).run()
        assert leader.runtime == pytest.approx(sdr.runtime, rel=1e-9)


class TestRedMpi:
    def test_hashes_flow_and_no_sdc_on_clean_run(self):
        job = _job("redmpi")
        res = job.launch(stream, n=10).run()
        assert res.stat_total("hashes_sent") == 20  # one per message per replica
        assert res.stat_total("sdc_detected") == 0

    def test_injected_corruption_detected_once(self):
        job = _job("redmpi")
        job.launch(stream, n=10)
        job.protocols[job.rmap.phys(0, 1)].corrupt_next_send()
        res = job.run()
        assert res.stat_total("sdc_detected") == 1
        victim = job.protocols[job.rmap.phys(1, 0)]  # p^0_1 compares clean data vs bad hash
        assert len(victim.sdc_events) == 1
        assert victim.sdc_events[0].seq == 0

    def test_multiple_corruptions_counted(self):
        job = _job("redmpi")
        job.launch(stream, n=10)
        job.protocols[job.rmap.phys(0, 0)].corrupt_next_send(3)
        res = job.run()
        assert res.stat_total("sdc_detected") == 3

    def test_no_acks_no_retention(self):
        res = _job("redmpi").launch(stream, n=5).run()
        assert res.stat_total("acks_sent") == 0

    def test_anysource_uses_leader_decisions(self):
        job = _job("redmpi", n_ranks=3)
        res = job.launch(anysource_app).run()
        assert res.stat_total("decisions_sent") > 0
        vals = {res.app_results[p] for p in res.app_results}
        assert len(vals) == 1

    def test_phantom_payload_hashing_consistent(self):
        from repro.mpi.datatypes import Phantom

        def phantom_stream(mpi, n=6):
            if mpi.rank == 0:
                for i in range(n):
                    yield from mpi.send(Phantom(64), dest=1, tag=1)
            else:
                for _ in range(n):
                    yield from mpi.recv(source=0, tag=1)

        res = _job("redmpi").launch(phantom_stream).run()
        assert res.stat_total("sdc_detected") == 0


def _deciders(mpi):
    """(recvs_posted, parked receives, parked decisions) of this process."""
    return (mpi.pml.recvs_posted, len(mpi.protocol._deferred), len(mpi.protocol.decisions))


def decision_after_irecv(mpi):
    """Rank 0 posts its anonymous receive long before rank 1 sends: every
    follower's receive is parked when the leader's decision arrives."""
    if mpi.rank == 1:
        yield from mpi.compute(20e-6)
        yield from mpi.send(np.array([7.0]), dest=0, tag=1)
        return None
    handle = yield from mpi.irecv(source=mpi.ANY_SOURCE, tag=1)
    parked = _deciders(mpi)
    yield from mpi.wait(handle)
    return parked, _deciders(mpi), float(handle.data[0])


def decision_before_irecv(mpi):
    """Rank 0's followers dawdle, then drain their inbox in an unrelated
    call: the decision is handled before their own ``irecv`` exists."""
    if mpi.rank == 1:
        yield from mpi.send(np.array([7.0]), dest=0, tag=1)
        return None
    if mpi.protocol.rep != 0:
        yield from mpi.compute(50e-6)
    yield from mpi.iprobe(source=1, tag=99)  # progress only: nothing matches
    early = _deciders(mpi)
    handle = yield from mpi.irecv(source=mpi.ANY_SOURCE, tag=1)
    posted = _deciders(mpi)
    yield from mpi.wait(handle)
    return early, posted, float(handle.data[0])


@pytest.mark.parametrize("degree", [2, 3])
@pytest.mark.parametrize("protocol", ["leader", "redmpi"])
class TestFollowerPostsAtDecisionTime:
    """A follower's deferred receive is posted by the decision handler (or
    by ``irecv`` itself when the decision got there first) — never by a
    wait loop — and the application holds a plain ``RecvHandle`` throughout."""

    def _run(self, protocol, degree, app):
        job = _job(protocol, degree=degree)
        res = job.launch(app).run()
        followers = [p for p in job.protocols if job.rmap.rank_of(p) == 0 and job.rmap.rep_of(p) != 0]
        assert len(followers) == degree - 1
        for proto in job.protocols.values():
            assert not proto._deferred and not proto.decisions
        # A matching engine indexes a (source is ANY, tag is ANY) class at
        # its first receive or probe of that shape.
        for p in followers:
            assert not any(any_src for any_src, _ in job.pmls[p].matching._classes)  # posted specific-source
            assert job.pmls[p].recvs_posted == 1
        assert (True, False) in job.pmls[job.rmap.phys(0, 0)].matching._classes
        return res, followers

    def test_decision_after_irecv(self, protocol, degree):
        res, followers = self._run(protocol, degree, decision_after_irecv)
        for p in followers:
            parked, done, value = res.app_results[p]
            assert parked == (0, 1, 0)  # built, parked, not posted
            assert done == (1, 0, 0)  # posted while handling the decision
            assert value == 7.0

    def test_decision_before_irecv(self, protocol, degree):
        res, followers = self._run(protocol, degree, decision_before_irecv)
        for p in followers:
            early, posted, value = res.app_results[p]
            assert early == (0, 0, 1)  # decision parked, no receive yet
            assert posted == (1, 0, 0)  # consumed and posted inside irecv
            assert value == 7.0
