"""A finished Job frees itself: no reference cycle outlives a run.

Each check runs with the collector off.  Dropping the job and its result
must free the job by reference counting alone, and a collection made
afterwards (under ``DEBUG_SAVEALL``, so nothing it finds is freed behind
our back) must find no object whose type is defined in ``repro``.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro import Job, RecoveryManager, ReplicationConfig, cluster_for
from repro.harness import campaign
from repro.harness.sweep import MIX_PROFILES, SweepPoint
from repro.mpi.errors import DeadlockError
from repro.scenarios import ring_collectives
from repro.sim.shard import ParallelConfig

PROTOCOLS = ["native", "sdr", "mirror", "leader", "redmpi"]


def _leftovers(run):
    """Call *run* — it builds and runs jobs and returns weak references to
    them — with the collector off.  Returns how many of those jobs are
    still alive, and the ``repro`` types of the cyclic garbage left."""
    gc.collect()
    gc.disable()
    try:
        refs = run()
        alive = sum(ref() is not None for ref in refs)
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        types = sorted(
            {
                f"{type(o).__module__}.{type(o).__qualname__}"
                for o in gc.garbage
                if type(o).__module__.startswith("repro.")
            }
        )
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    return alive, types


def _job(protocol: str, n_ranks: int = 8, **kwargs) -> Job:
    degree = 1 if protocol == "native" else 2
    cfg = ReplicationConfig(degree=degree, protocol=protocol)
    return Job(n_ranks, cfg=cfg, cluster=cluster_for(n_ranks, degree), **kwargs)


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_completed_run_frees_by_refcount(protocol):
    def run():
        job = _job(protocol).launch(ring_collectives, iters=2, nbytes=256)
        res = job.run()
        assert set(res.app_results.values()) == {2 * 8 * 7 / 2}
        # post-run readers still work on the unlinked job
        assert job.mpis[3].rank == 3 and not job.processes[3].alive
        return [weakref.ref(job)]

    assert _leftovers(run) == (0, [])


class _Iter:
    def __init__(self):
        self.it = 0
        self.acc = 0.0


def _exchange(mpi, iters=20, state=None):
    st = state or _Iter()
    mpi.register_state(st)
    while st.it < iters:
        if mpi.rank == 1:
            yield from mpi.send(np.array([float(st.it)]), dest=0, tag=1)
            got, _ = yield from mpi.recv(source=0, tag=2)
        else:
            got, _ = yield from mpi.recv(source=1, tag=1)
            yield from mpi.send(np.array([2.0 * st.it]), dest=1, tag=2)
        st.acc += float(got[0])
        st.it += 1
        yield from mpi.recovery_point()
        yield from mpi.compute(2e-6)
    return st.acc


def test_crash_with_respawn_frees_by_refcount():
    def run():
        cfg = ReplicationConfig(degree=2, protocol="sdr")
        job = Job(2, cfg=cfg, cluster=cluster_for(2, 2, cores_per_node=1)).launch(_exchange)
        job.crash(rank=1, rep=1, at=30e-6)
        manager = RecoveryManager(job)
        job.sim.call_at(60e-6, lambda: manager.request_respawn(1))
        res = job.run()
        assert manager.respawns_done and job._retired_stacks
        assert res.app_results[job.rmap.phys(1, 1)] == sum(2.0 * i for i in range(20))
        return [weakref.ref(job), weakref.ref(manager)]

    assert _leftovers(run) == (0, [])


def _rank0_waits_forever(mpi):
    if mpi.rank == 0:
        yield from mpi.recv(source=1, tag=5)  # never sent
    return mpi.rank


@pytest.mark.parametrize("protocol", ["native", "sdr"])
def test_deadlocked_run_frees_by_refcount(protocol):
    """Rank 0 blocks in its application while every other process parks
    in the finalize drain: all of them stay suspended when the run raises."""

    def run():
        job = _job(protocol, n_ranks=4).launch(_rank0_waits_forever)
        with pytest.raises(DeadlockError) as info:
            job.run()
        assert sorted(info.value.blocked) == (["p0"] if protocol == "native" else ["p0_0", "p1_0"])
        assert job.processes[0].alive
        del info  # its traceback holds run()'s frame
        return [weakref.ref(job)]

    assert _leftovers(run) == (0, [])


@pytest.mark.parametrize("mix", sorted(MIX_PROFILES))
def test_run_case_frees_by_refcount(mix, monkeypatch):
    """Horizon-bounded runs that ``run_case`` audits afterwards: crashes,
    churn, respawns, wire faults, a deadlocked outcome."""
    refs = []

    class SpyJob(Job):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            refs.append(weakref.ref(self))

    monkeypatch.setattr(campaign, "Job", SpyJob)

    def run():
        for seed in range(4):
            point = SweepPoint(0, "sdr", 2, 4, "ring", mix, seed)
            rec = campaign.run_case(point.protocol, seed, point.campaign_config())
            assert rec.invariant_error is None
        return refs

    assert _leftovers(run) == (0, [])
    assert len(refs) == 4


def test_sharded_run_frees_parent_side():
    def run():
        job = _job("sdr", n_ranks=64, parallel=ParallelConfig(workers=2))
        res = job.launch(ring_collectives, iters=1, nbytes=256).run()
        assert res.parallel["workers"] == 2 and res.parallel["fallback"] == []
        return [weakref.ref(job)]

    assert _leftovers(run) == (0, [])


def test_a_job_runs_once():
    job = _job("sdr", n_ranks=4).launch(ring_collectives, iters=1, nbytes=64)
    job.run(until=1e-6)
    with pytest.raises(RuntimeError, match=r"Job\(4 ranks, protocol 'sdr'\) has already run"):
        job.run()
