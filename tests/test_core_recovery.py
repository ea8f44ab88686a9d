"""Replica recovery (§3.4, Fig. 4)."""

import numpy as np
import pytest

from repro.core.config import ReplicationConfig
from repro.core.recovery import RecoveryManager, RecoveryUnsupported
from repro.core.sdr import SdrProtocol
from repro.harness.runner import Job, cluster_for
from repro.mpi.pml import Pml


class IterState:
    def __init__(self):
        self.it = 0
        self.acc = 0.0


def recoverable_exchange(mpi, iters=60, state=None):
    st = state or IterState()
    mpi.register_state(st)
    while st.it < iters:
        it = st.it
        if mpi.rank == 1:
            yield from mpi.send(np.array([float(it)]), dest=0, tag=1)
            got, _ = yield from mpi.recv(source=0, tag=2)
        else:
            got, _ = yield from mpi.recv(source=1, tag=1)
            yield from mpi.send(np.array([2.0 * it]), dest=1, tag=2)
        st.acc += float(got[0])
        st.it += 1
        yield from mpi.recovery_point()
        yield from mpi.compute(1e-6)
    return st.acc


def _job(n_ranks=2, iters=60):
    cfg = ReplicationConfig(degree=2, protocol="sdr")
    job = Job(n_ranks, cfg=cfg, cluster=cluster_for(n_ranks, 2, cores_per_node=1))
    job.launch(recoverable_exchange, iters=iters)
    return job


def _want(iters=60):
    return {0: sum(float(i) for i in range(iters)), 1: sum(2.0 * i for i in range(iters))}


class TestRecovery:
    @pytest.mark.parametrize("crash_at,respawn_at", [(60e-6, 100e-6), (30e-6, 35e-6), (100e-6, 300e-6)])
    def test_respawned_replica_finishes_correctly(self, crash_at, respawn_at):
        job = _job()
        manager = RecoveryManager(job)
        job.crash(1, 1, at=crash_at)
        job.sim.call_at(respawn_at, lambda: manager.request_respawn(1))
        res = job.run()
        want = _want()
        assert len(res.app_results) == 4  # including the respawned process
        for proc, val in res.app_results.items():
            assert val == want[job.rmap.rank_of(proc)]
        assert manager.respawns_done == [job.rmap.phys(1, 1)]

    def test_recovery_of_replica_zero(self):
        job = _job()
        manager = RecoveryManager(job)
        job.crash(0, 0, at=60e-6)
        job.sim.call_at(100e-6, lambda: manager.request_respawn(0))
        res = job.run()
        want = _want()
        assert len(res.app_results) == 4
        for proc, val in res.app_results.items():
            assert val == want[job.rmap.rank_of(proc)]

    def test_substitute_stops_on_behalf_duty_after_respawn(self):
        job = _job()
        manager = RecoveryManager(job)
        job.crash(1, 1, at=60e-6)
        job.sim.call_at(100e-6, lambda: manager.request_respawn(1))
        job.run()
        sub = job.protocols[job.rmap.phys(1, 0)]
        assert sub.substitute[1] == 1  # identity restored
        assert job.rmap.phys(0, 1) not in sub.physical_dests.get(0, [])

    def test_peer_resumes_pairwise_sends(self):
        job = _job()
        manager = RecoveryManager(job)
        job.crash(1, 1, at=60e-6)
        job.sim.call_at(100e-6, lambda: manager.request_respawn(1))
        job.run()
        peer = job.protocols[job.rmap.phys(0, 1)]  # p^1_0
        assert job.rmap.phys(1, 1) in peer.physical_dests.get(1, [])

    def test_protocol_state_cloned(self):
        job = _job()
        manager = RecoveryManager(job)
        job.crash(1, 1, at=60e-6)
        job.sim.call_at(100e-6, lambda: manager.request_respawn(1))
        job.run()
        fresh = job.protocols[job.rmap.phys(1, 1)]  # post-respawn protocol
        # the respawned replica continued the logical channels: its send
        # counters cover the full run
        assert fresh._send_seq.get(0, 0) >= 1
        assert fresh._expected.get(0, 0) >= 1

    def test_no_pending_respawn_is_noop(self):
        job = _job()
        RecoveryManager(job)
        res = job.run()  # recovery_point called every iteration, no pending
        want = _want()
        for proc, val in res.app_results.items():
            assert val == want[job.rmap.rank_of(proc)]

    def test_respawn_request_before_crash_is_harmless(self):
        job = _job()
        manager = RecoveryManager(job)
        manager.request_respawn(1)  # nothing dead yet
        job.crash(1, 1, at=60e-6)
        res = job.run()
        assert len(res.app_results) == 4  # respawn happens once the crash lands


PRE, BURST = 12, 30


def burst_after_pingpong(mpi, state=None):
    """Rank 0 ping-pongs with rank 1 (progress: the failure notification is
    handled), then bursts isends with no progress call in between — so a
    RECOVERED notification sits unhandled in its inbox while it keeps
    sending.  Rank 1 receives, with a recovery point per message."""
    st = state or IterState()
    mpi.register_state(st)
    if mpi.rank == 0:
        for it in range(PRE):
            yield from mpi.send(np.array([float(it)]), dest=1, tag=1)
            yield from mpi.recv(source=1, tag=2)
        handles = []
        for it in range(PRE, PRE + BURST):
            handles.append((yield from mpi.isend(np.array([float(it)]), dest=1, tag=1)))
            yield from mpi.compute(2e-6)
        yield from mpi.wait_handles(handles)
        return PRE + BURST
    while st.it < PRE + BURST:
        got, _ = yield from mpi.recv(source=0, tag=1)
        assert got[0] == st.it
        if st.it < PRE:
            yield from mpi.send(got, dest=0, tag=2)
        st.it += 1
        yield from mpi.recovery_point()
    return st.it


def test_nothing_is_posted_to_a_respawned_replica_before_recovered(monkeypatch):
    """The respawn window: once a peer's failure handler has dropped the
    dead replica from physicalDests, only its RECOVERED handler re-admits
    the slot — however many application sends fall in between.  A routing
    default recomputed from liveness at send time would post them."""
    log = []
    post_send, on_recovered = Pml.post_send, SdrProtocol._on_recovered

    def logged_post(self, ctx, src_rank, tag, payload, world_src, world_dst, seq, dst_phys, *a, **k):
        log.append(("post", self.proc, dst_phys))
        return post_send(self, ctx, src_rank, tag, payload, world_src, world_dst, seq, dst_phys, *a, **k)

    def logged_recovered(self, env):
        log.append(("recovered", self.pml.proc, self._send_seq.get(1)))
        yield from on_recovered(self, env)

    monkeypatch.setattr(Pml, "post_send", logged_post)
    monkeypatch.setattr(SdrProtocol, "_on_recovered", logged_recovered)
    cfg = ReplicationConfig(degree=2, protocol="sdr")
    job = Job(2, cfg=cfg, cluster=cluster_for(2, 2, cores_per_node=1))
    job.launch(burst_after_pingpong)
    manager = RecoveryManager(job)
    peer, new = job.rmap.phys(0, 1), job.rmap.phys(1, 1)
    job.crash(1, 1, at=30e-6)
    job.sim.call_at(70e-6, lambda: manager.request_respawn(1))
    revive = job.fabric.revive

    def logged_revive(proc):
        log.append(("revive", proc, job.protocols[peer]._send_seq.get(1)))
        revive(proc)

    job.fabric.revive = logged_revive
    res = job.run()
    assert res.app_results == {p: PRE + BURST for p in range(4)}
    at_revive = log.index(("revive", new, 18))
    at_recovered = log.index(("recovered", peer, PRE + BURST))
    window = log[at_revive:at_recovered]
    # the peer had sent to rank 1 before the crash, kept sending through
    # the window (cursor 18 -> 42) and posted none of it to the new process
    assert ("post", peer, new) in log[:at_revive]
    assert ("post", peer, new) not in window
    # ... then replayed exactly what the substitute had not acked
    assert log[at_recovered + 1 :].count(("post", peer, new)) == PRE + BURST - 18
    assert job.protocols[peer].physical_dests[1] == [new]


class TestRecoveryValidity:
    def test_degree_three_rejected(self):
        cfg = ReplicationConfig(degree=3, protocol="sdr")
        job = Job(2, cfg=cfg, cluster=cluster_for(2, 3, cores_per_node=1))
        with pytest.raises(RecoveryUnsupported) as err:
            RecoveryManager(job)
        assert "degree" in str(err.value)

    def test_mirror_protocol_rejected(self):
        cfg = ReplicationConfig(degree=2, protocol="mirror")
        job = Job(2, cfg=cfg, cluster=cluster_for(2, 2, cores_per_node=1))
        with pytest.raises(RecoveryUnsupported):
            RecoveryManager(job)

    def test_unregistered_state_rejected(self):
        def stateless(mpi, iters=30, state=None):
            for it in range(iters):
                yield from mpi.barrier()
                yield from mpi.recovery_point()
                yield from mpi.compute(1e-6)

        cfg = ReplicationConfig(degree=2, protocol="sdr")
        job = Job(2, cfg=cfg, cluster=cluster_for(2, 2, cores_per_node=1))
        job.launch(stateless)
        manager = RecoveryManager(job)
        job.crash(1, 1, at=50e-6)
        job.sim.call_at(60e-6, lambda: manager.request_respawn(1))
        with pytest.raises(RecoveryUnsupported):
            job.run()
