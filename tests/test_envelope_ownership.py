"""The message ownership contract: the pool balances, hooks borrow.

PR 3's contract (see :mod:`repro.mpi.pml` and :mod:`repro.core.interpose`):
every message — one frame carrying its envelope — has exactly one owner at
every point in its lifetime, and
hooks borrow it for the call (no refcount).  The harness enforces the zero-leak
property in the teardown of **every** run — since PR 4, crashy runs
included: fail-stop drop sites and abandoned receive pipelines count what
they strand, and the teardown asserts
``acquired == released + stranded``.  These tests pin the accounting
itself, the borrow window, the end-of-run reaping of well-defined
leftovers, and the failover/recovery scenarios the strand accounting
exists for.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import ReplicationConfig
from repro.core.recovery import RecoveryManager
from repro.harness.runner import Job, cluster_for
from repro.mpi.datatypes import Phantom
from repro.mpi.errors import DeadlockError
from tests.conftest import run_app


def _job(protocol="native", n=2, **kwargs):
    if protocol == "native":
        cfg = ReplicationConfig(degree=1, protocol="native")
    else:
        cfg = ReplicationConfig(degree=2, protocol=protocol)
    return Job(n, cfg=cfg, cluster=cluster_for(n, cfg.degree), **kwargs)


def pingpong(mpi, rounds=10):
    peer = mpi.rank ^ 1
    if peer >= mpi.size:
        return 0
    for r in range(rounds):
        if mpi.rank < peer:
            yield from mpi.send(np.arange(4, dtype=np.float64), dest=peer, tag=r % 3)
            yield from mpi.recv(source=peer, tag=r % 3)
        else:
            yield from mpi.recv(source=peer, tag=r % 3)
            yield from mpi.send(np.arange(4, dtype=np.float64), dest=peer, tag=r % 3)
    return rounds


def anysource_fanin(mpi, rounds=10):
    if mpi.rank == 0:
        total = 0.0
        for _ in range(rounds):
            for _ in range(mpi.size - 1):
                d, _st = yield from mpi.recv(source=mpi.ANY_SOURCE, tag=2)
                total += float(d[0])
            for dst in range(1, mpi.size):
                yield from mpi.send(np.array([total]), dest=dst, tag=3)
        return total
    acc = 0.0
    for _ in range(rounds):
        yield from mpi.send(np.array([float(mpi.rank)]), dest=0, tag=2)
        d, _ = yield from mpi.recv(source=0, tag=3)
        acc = float(d[0])
    return acc


class TestArenaBalance:
    """Zero leaks: every acquire matched by a release, per job."""

    @pytest.mark.parametrize("protocol", ["native", "sdr", "mirror", "leader", "redmpi"])
    def test_envelopes_and_frames_balance(self, protocol):
        n = 2 if protocol == "native" else 4
        job = _job(protocol, n=n)
        job.launch(anysource_fanin, rounds=8).run()  # run() asserts balance…
        # …and the counters are visible and consistent afterwards:
        fab = job.fabric.stats()
        assert fab["frames_acquired"] == fab["frames_released"] > 0

    def test_arena_reuse_actually_happens(self):
        """Steady state is allocation-free: far fewer constructions than
        acquisitions once the pools are warm."""
        job = _job("sdr", n=4)
        job.launch(anysource_fanin, rounds=30).run()
        fab = job.fabric
        assert fab.frames_allocated < fab.frames_acquired / 5  # >80% recycled

    def test_one_object_per_message(self):
        """perf's anysource-64 leader job: one job-wide pool allocates no
        more shells than the job ever holds outstanding.  With a per-PML
        envelope arena beside the frame pool, fan-in senders' envelopes
        recycled into the root's pool and the senders kept allocating:
        6,617 shells for about 130 outstanding."""
        job = _job("leader", n=64)
        res = job.launch(anysource_fanin, rounds=100).run()
        assert res.fabric["frames_acquired"] == 56_700  # perf/expected.json's frame count
        # every shell constructed: the frame pool's, plus any per-PML
        # envelope arena's (a PML that reports none allocated none)
        shells = res.fabric["frames_allocated"] + res.stat_total("env_allocated")
        assert shells <= res.fabric["frame_high_water"]

    def test_rendezvous_path_balances(self):
        def app(mpi):
            if mpi.rank == 0:
                yield from mpi.send(np.zeros(8192), dest=1, tag=1)  # rts/cts/data
            else:
                yield from mpi.recv(source=0, tag=1)

        job = _job()
        job.launch(app).run()
        assert job.fabric.frames_acquired == job.fabric.frames_released == 3  # rts, cts, data

    def test_stats_expose_arena_counters(self):
        """One pool, one set of counters: the fabric's; a PML keeps none."""
        job = _job("sdr", n=2)
        res = job.launch(pingpong, rounds=4).run()
        some = next(iter(res.stats.values()))
        assert not [key for key in some if key.startswith("env_")]
        for key in ("frames_acquired", "frames_allocated", "frames_released", "frames_stranded"):
            assert key in res.fabric

    def test_unreceived_message_is_reaped(self):
        """A message nobody ever receives parks in the unexpected queue;
        teardown reaps it and the arenas still balance."""

        def app(mpi):
            if mpi.rank == 0:
                yield from mpi.send(np.ones(1), dest=1, tag=9)  # eager: fire&forget
            else:
                yield from mpi.compute(1e-6)  # never posts the receive

        job = _job()
        job.launch(app).run()
        assert job.fabric.frames_acquired == job.fabric.frames_released == 1

    def test_crashy_runs_assert_balance_too(self):
        """Crashes strand in-flight objects — and the teardown now proves
        every strand is accounted instead of skipping the check."""
        res = run_app(anysource_fanin, 4, protocol="sdr", crash=(1, 1, 2e-5), rounds=12)
        assert res.runtime > 0  # completed; run() asserted the balance
        assert "frames_stranded" in res.fabric and "strands_by_site" in res.fabric


def _balance(job):
    """(acquired, released, stranded) message totals, retired stacks included."""
    fab = job.fabric
    return fab.frames_acquired, fab.frames_released, fab.frames_stranded


class TestDropSiteCounters:
    """The fabric-level fail-stop drop sites account what they strand."""

    def _eager(self, fab, dst=1):
        return fab.acquire("eager", 0, dst, 8, ("w",), 0, 1, 0, dst, 0, 8, b"x" * 8)

    def test_send_by_dead_source_strands(self):
        job = _job(n=2)
        fab = job.fabric
        fab.crash(0)
        fab.inject(self._eager(fab))
        assert fab.frames_stranded == 1
        assert fab.strands_by_site == {"dead_source": [1, 1]}
        assert fab.frames_acquired == fab.frames_released + fab.frames_stranded

    def test_arrival_at_dead_endpoint_strands(self):
        job = _job(n=2)
        fab = job.fabric
        frame = self._eager(fab)
        fab.crash(1)
        fab.endpoints[1].deliver(frame)
        assert fab.frames_stranded == 1
        assert fab.strands_by_site == {"dead_endpoint": [1, 1]}

    def test_dead_rank_inbox_clear_strands(self):
        job = _job(n=2)
        fab = job.fabric
        fab.endpoints[1].deliver(self._eager(fab))
        fab.endpoints[1].deliver(fab.acquire("svc", -1, 1, 0, data=0, ctrl_key="failure"))
        fab.crash(1)  # clears the two queued frames
        assert fab.frames_stranded == 2
        assert fab.strands_by_site == {"inbox_clear": [2, 1]}  # a svc notice carries no envelope
        assert len(fab.endpoints[1].inbox) == 0


class TestCrashAwareStrandAccounting:
    """Failover/recovery leak cases: ``released + stranded == acquired``
    holds through fail-stop crashes, for every protocol.  ``Job.run``
    raises from its teardown on any unaccounted strand, so each scenario
    completing *is* the proof; the explicit sums double-check the exposed
    counters (including retired respawn stacks)."""

    @pytest.mark.parametrize("protocol", ["sdr", "mirror", "leader"])
    @pytest.mark.parametrize("crash_at", [1e-5, 6e-5, 1.5e-4])
    def test_failover_balances(self, protocol, crash_at):
        job = _job(protocol, n=4)
        job.launch(anysource_fanin, rounds=12)
        job.crash(1, 1, at=crash_at)
        res = job.run()
        assert res.runtime > 0
        acquired, released, stranded = _balance(job)
        assert acquired == released + stranded

    def test_failover_strands_are_counted_not_lost(self):
        """A crash in the middle of heavy traffic really strands objects —
        the counters must move, not just the check pass vacuously."""
        job = _job("sdr", n=4)
        job.launch(anysource_fanin, rounds=12)
        job.crash(1, 1, at=2e-5)
        job.run()
        acquired, released, stranded = _balance(job)
        assert stranded > 0
        assert acquired == released + stranded

    def test_rendezvous_failover_balances(self):
        """Crash mid-rendezvous: retained rts/cts/data envelopes at the
        dead peer are stranded or cancelled, never leaked."""

        def app(mpi, iters=6):
            right = (mpi.rank + 1) % mpi.size
            left = (mpi.rank - 1) % mpi.size
            for _ in range(iters):
                yield from mpi.sendrecv(Phantom(65536), dest=right, source=left, sendtag=1)
            return mpi.rank

        job = _job("sdr", n=4)
        job.launch(app)
        job.crash(2, 1, at=8e-5)
        job.run()
        acquired, released, stranded = _balance(job)
        assert acquired == released + stranded

    def test_native_lost_rank_balances(self):
        """Native has no replicas: a crash loses the rank, survivors block
        forever, and the teardown abandons them — their borrows must land
        in the strand counters."""
        cfg = ReplicationConfig(degree=1, protocol="native")
        job = Job(4, cfg=cfg, cluster=cluster_for(4, 1))
        job.launch(anysource_fanin, rounds=12)
        job.crash(2, 0, at=4e-5)
        res = job.run(allow_lost_ranks=True)
        assert res.lost_ranks == [2]
        acquired, released, stranded = _balance(job)
        assert acquired == released + stranded

    def test_redmpi_lost_rank_balances(self):
        """redMPI tolerates no crashes (no acks, no retention): losing both
        replicas of a rank wedges its peers, which the teardown abandons —
        and the arenas still balance."""
        job = _job("redmpi", n=4)
        job.launch(anysource_fanin, rounds=12)
        job.crash(1, 0, at=4e-5)
        job.crash(1, 1, at=5e-5)
        res = job.run(allow_lost_ranks=True)
        assert res.lost_ranks == [1]
        acquired, released, stranded = _balance(job)
        assert acquired == released + stranded

    def test_recovery_respawn_balances(self):
        """§3.4 recovery replaces the dead replica's stack: the retired
        PML's counters and parked envelopes stay in the balance."""

        class IterState:
            def __init__(self):
                self.it = 0
                self.acc = 0.0

        def app(mpi, iters=40, state=None):
            st_ = state or IterState()
            mpi.register_state(st_)
            while st_.it < iters:
                it = st_.it
                if mpi.rank == 1:
                    yield from mpi.send(np.array([float(it)]), dest=0, tag=1)
                    got, _ = yield from mpi.recv(source=0, tag=2)
                else:
                    got, _ = yield from mpi.recv(source=1, tag=1)
                    yield from mpi.send(np.array([2.0 * it]), dest=1, tag=2)
                st_.acc += float(got[0])
                st_.it += 1
                yield from mpi.recovery_point()
                yield from mpi.compute(1e-6)
            return st_.acc

        cfg = ReplicationConfig(degree=2, protocol="sdr")
        job = Job(2, cfg=cfg, cluster=cluster_for(2, 2, cores_per_node=1))
        job.launch(app)
        manager = RecoveryManager(job)
        job.crash(1, 1, at=60e-6)
        job.sim.call_at(100e-6, lambda: manager.request_respawn(1))
        res = job.run()
        assert len(res.app_results) == 4  # the respawn finished too
        assert job._retired_stacks  # the replaced stack was retired
        acquired, released, stranded = _balance(job)
        assert acquired == released + stranded

    @settings(max_examples=25, deadline=None)
    @given(
        protocol=st.sampled_from(["sdr", "mirror", "leader"]),
        rank=st.integers(0, 3),
        rep=st.integers(0, 1),
        crash_us=st.floats(min_value=1.0, max_value=200.0),
    )
    def test_random_crash_timing_balances(self, protocol, rank, rep, crash_us):
        """The crash can land at *any* yield point — mid-CPU-charge inside
        frame handling, mid-hook, mid-rendezvous handshake.  Whatever the
        pipeline was holding must be stranded, never lost.

        Some sampled configurations legitimately wedge: a leader-replica
        crash at the wrong moment leaves followers waiting forever for a
        decision (the leader baseline has no decision failover — that is
        the protocol's known weakness, not a leak).  A deadlocked run
        still must balance once its survivors are abandoned, which is a
        *stronger* exercise of the teardown than a clean finish.
        """
        job = _job(protocol, n=4)
        job.launch(anysource_fanin, rounds=10)
        job.crash(rank, rep, at=crash_us * 1e-6)
        try:
            job.run(allow_lost_ranks=True)
        except DeadlockError:
            job._assert_arenas_balanced()
        acquired, released, stranded = _balance(job)
        assert acquired == released + stranded


class TestBorrowAndEscapeHatches:
    def test_hook_borrow_is_valid_during_and_recycled_after(self):
        """Inside the hook the envelope is live; after the run the shell
        has been reset (ctx/data dropped) — proof it went back to the arena."""
        job = _job()
        seen = []

        def hook(env, recv):
            seen.append(env)
            assert env.data is not None and env.ctx is not None  # live borrow

        job.pmls[1].on_recv_complete.append(hook)

        def app(mpi):
            if mpi.rank == 0:
                yield from mpi.send(np.ones(2), dest=1, tag=1)
            else:
                yield from mpi.recv(source=0, tag=1)

        job.launch(app).run()
        (env,) = seen
        assert env.ctx is None and env.data is None  # recycled after the window


class TestSendRequestOwnership:
    def test_send_requests_hold_no_envelope(self):
        """The eager envelope belongs to the wire/receiver the moment it is
        injected — the request object records scalars only."""
        job = _job()
        handles = []

        def app(mpi):
            if mpi.rank == 0:
                h = yield from mpi.isend(np.ones(1), dest=1, tag=1)
                handles.append(h)
                yield from mpi.wait(h)
            else:
                yield from mpi.recv(source=0, tag=1)

        job.launch(app).run()
        (handle,) = handles
        req = handle.pml_reqs[0]
        assert not hasattr(req, "envelope")
        assert req.done and req.nbytes == 8
