"""Build-time validation of fault schedules: a schedule that cannot mean
anything sensible raises :class:`FaultScheduleError` before the simulation
runs, naming the offending spec — never a silently weird run.
"""

import numpy as np
import pytest

from repro.core.config import ReplicationConfig
from repro.core.membership import DetectorConfig
from repro.harness.faults import FaultSchedule, FaultScheduleError
from repro.harness.runner import Job, cluster_for


class _State:
    def __init__(self):
        self.step = 0


def exchange(mpi, iters=30, state=None):
    st = state or _State()
    mpi.register_state(st)
    right = (mpi.rank + 1) % mpi.size
    left = (mpi.rank - 1) % mpi.size
    while st.step < iters:
        k = st.step
        if mpi.rank % 2 == 0:
            yield from mpi.send(np.array([float(k)]), dest=right, tag=1)
            yield from mpi.recv(source=left, tag=1)
        else:
            yield from mpi.recv(source=left, tag=1)
            yield from mpi.send(np.array([float(k)]), dest=right, tag=1)
        st.step += 1
        yield from mpi.recovery_point()
    return mpi.rank


def _sdr_job(n=4, detector=None):
    cfg = ReplicationConfig(degree=2, protocol="sdr")
    return Job(n, cfg=cfg, cluster=cluster_for(n, 2), detector=detector)


class TestCrashScheduleValidation:
    def test_duplicate_crash_rejected(self):
        sched = FaultSchedule().crash(1, 1, 10e-6).crash(1, 1, 20e-6)
        with pytest.raises(FaultScheduleError, match="dies exactly once"):
            sched.validate()

    def test_negative_time_rejected(self):
        with pytest.raises(FaultScheduleError, match="negative time"):
            FaultSchedule().crash(0, 0, -1e-6).validate()

    def test_post_horizon_time_rejected(self):
        with pytest.raises(FaultScheduleError, match="past the campaign horizon"):
            FaultSchedule().crash(0, 0, 2e-3).validate(horizon=1e-3)


class TestFaultScheduleValidation:
    def test_duplicate_node_crash_rejected(self):
        sched = FaultSchedule().crash_node(0, 10e-6).crash_node(0, 20e-6)
        with pytest.raises(FaultScheduleError, match="duplicate crash of node"):
            sched.validate()

    def test_nonpositive_clear_after_rejected(self):
        sched = FaultSchedule().suspect(0, 1, 10e-6, clear_after=0.0)
        with pytest.raises(FaultScheduleError, match="must be positive"):
            sched.validate()

    def test_respawn_without_crash_rejected(self):
        with pytest.raises(FaultScheduleError, match="no crash of that"):
            FaultSchedule().respawn(2, 50e-6).validate()

    def test_respawn_before_crash_rejected(self):
        sched = FaultSchedule().crash(1, 1, 50e-6).respawn(1, 40e-6)
        with pytest.raises(FaultScheduleError, match="respawn-before-crash"):
            sched.validate()

    def test_builders_compose_and_count(self):
        sched = (
            FaultSchedule()
            .crash(0, 1, 10e-6)
            .crash_node(1, 20e-6)
            .suspect(2, 0, 30e-6, clear_after=10e-6)
            .respawn(0, 60e-6)
        )
        assert len(sched) == 4
        sched.validate()

    def test_rolling_churn_needs_positive_period_and_downtime(self):
        with pytest.raises(FaultScheduleError, match="positive period/downtime"):
            FaultSchedule.rolling_churn([0, 1], start=0.0, period=0.0, downtime=1e-6)
        with pytest.raises(FaultScheduleError, match="positive period/downtime"):
            FaultSchedule.rolling_churn([0, 1], start=0.0, period=1e-6, downtime=-1e-6)

    def test_cascade_needs_positive_gap(self):
        with pytest.raises(FaultScheduleError, match="positive gap"):
            FaultSchedule.cascade([0, 1], start=0.0, gap=0.0)

    def test_rolling_churn_shape(self):
        sched = FaultSchedule.rolling_churn([2, 3], start=10e-6, period=5e-6, downtime=7e-6)
        assert [(c.rank, c.at) for c in sched.crashes] == [
            (2, pytest.approx(10e-6)),
            (3, pytest.approx(15e-6)),
        ]
        assert [(r.rank, r.at) for r in sched.respawns] == [
            (2, pytest.approx(17e-6)),
            (3, pytest.approx(22e-6)),
        ]
        sched.validate()


class TestApplyTimeValidation:
    def test_crash_outside_job_rejected(self):
        job = _sdr_job()
        with pytest.raises(FaultScheduleError, match="outside the job"):
            FaultSchedule().crash(9, 0, 10e-6).apply(job)

    def test_suspicion_outside_job_rejected(self):
        job = _sdr_job(detector=DetectorConfig())
        with pytest.raises(FaultScheduleError, match=r"suspicion of \(rank=9, rep=1\) outside the job"):
            FaultSchedule().suspect(9, 1, 1e-6).apply(job)
        with pytest.raises(FaultScheduleError, match=r"suspicion of \(rank=0, rep=2\) outside the job"):
            FaultSchedule().suspect(0, 2, 1e-6).apply(_sdr_job(detector=DetectorConfig()))

    def test_respawn_outside_job_rejected(self):
        """A node crash lets a respawn of any rank through static validation;
        one of a rank the job does not have would never be honoured."""
        job = _sdr_job()
        with pytest.raises(FaultScheduleError, match="respawn of rank 9 outside the job"):
            FaultSchedule().crash_node(0, 1e-6).respawn(9, 50e-6).apply(job)

    def test_node_crash_outside_cluster_rejected(self):
        job = _sdr_job()
        with pytest.raises(FaultScheduleError, match="cluster has"):
            FaultSchedule().crash_node(99, 10e-6).apply(job)
        with pytest.raises(FaultScheduleError, match="cluster has"):
            FaultSchedule().crash_node(-1, 10e-6).apply(_sdr_job())

    def test_node_crash_colliding_with_replica_crash_rejected(self):
        job = _sdr_job()
        victim_node = job.placement.node_of(job.rmap.phys(0, 0))
        sched = FaultSchedule().crash(0, 0, 10e-6).crash_node(victim_node, 20e-6)
        with pytest.raises(FaultScheduleError, match="already crashed by"):
            sched.apply(job)

    def test_suspicion_requires_detector(self):
        job = _sdr_job(detector=None)
        with pytest.raises(FaultScheduleError, match="imperfect detector"):
            FaultSchedule().suspect(0, 1, 10e-6).apply(job)

    def test_respawn_before_declaration_rejected_with_detector(self):
        det = DetectorConfig(heartbeat_period=20e-6, timeout=30e-6, suspicion_threshold=2)
        job = _sdr_job(detector=det)
        at = 40e-6
        # after the crash, but before the detector can have declared it:
        # the respawned process would be condemned by the stale declaration
        early = det.declare_at(at) - 5e-6
        sched = FaultSchedule().crash(1, 1, at).respawn(1, early)
        with pytest.raises(FaultScheduleError, match="follow failure declaration"):
            sched.apply(job)

    def test_respawn_after_declaration_accepted_and_runs(self):
        det = DetectorConfig(heartbeat_period=10e-6, timeout=15e-6, suspicion_threshold=2)
        job = _sdr_job(detector=det)
        job.launch(exchange)
        at = 30e-6
        late = det.declare_at(at) + 3 * 5e-6 + 20e-6
        FaultSchedule().crash(1, 1, at).respawn(1, late).apply(job)
        res = job.run()
        # the respawned replica rejoined and finished too
        assert len(res.app_results) == 8

    def test_oracle_detector_keeps_historic_respawn_timing(self):
        # without the imperfect detector, declaration is near-instant: the
        # Fig. 4 style crash+quick-respawn schedule must stay legal
        job = _sdr_job(detector=None)
        job.launch(exchange)
        FaultSchedule().crash(1, 1, 30e-6).respawn(1, 45e-6).apply(job)
        res = job.run()
        assert len(res.app_results) == 8
