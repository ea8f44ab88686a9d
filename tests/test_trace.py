"""Tracing, Lamport clocks, and the send-determinism checker."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.apps.patterns import anysource_reduce, master_worker, ring, stencil_allreduce
from repro.harness.runner import Job, cluster_for
from repro.trace.determinism import check_send_determinism
from repro.trace.events import SendEvent
from repro.trace.lamport import LamportClock, causal_order_violations, happened_before
from repro.trace.recorder import TraceSet


class TestLamport:
    def test_tick_monotone(self):
        c = LamportClock()
        assert [c.tick() for _ in range(3)] == [1, 2, 3]

    def test_merge_takes_max_plus_one(self):
        c = LamportClock()
        c.tick()
        assert c.merge(10) == 11
        assert c.merge(2) == 12

    def test_happened_before_transitive(self):
        edges = [("a", "b"), ("b", "c"), ("x", "y")]
        assert happened_before(edges, "a", "c")
        assert not happened_before(edges, "c", "a")
        assert not happened_before(edges, "a", "y")

    def test_happened_before_reflexive_on_known_events_and_cycle_safe(self):
        edges = [("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")]  # a cycle on the way
        assert happened_before(edges, "a", "a")  # the empty path
        assert happened_before(edges, "d", "d")  # ... for a sink too
        assert happened_before(edges, "b", "d")
        assert not happened_before(edges, "d", "a")
        assert not happened_before(edges, "z", "z")  # unknown event
        assert not happened_before(iter(edges), "a", "z")

    def test_clock_condition_holds_for_simulated_run(self):
        """Run a real exchange, stamp events with Lamport clocks, verify
        C(a) < C(b) along every program-order and message edge."""
        stamps = {}
        edges = []

        def app(mpi):
            clock = LamportClock()
            peer = 1 - mpi.rank
            me = mpi.rank
            prev = None
            for i in range(5):
                if mpi.rank == 0:
                    s = clock.stamp_send()
                    stamps[("s", me, i)] = s
                    yield from mpi.send(np.array([float(s)]), dest=peer, tag=1)
                    node = ("s", me, i)
                else:
                    data, _ = yield from mpi.recv(source=peer, tag=1)
                    r = clock.merge(int(data[0]))
                    stamps[("r", me, i)] = r
                    edges.append((("s", peer, i), ("r", me, i)))
                    node = ("r", me, i)
                if prev is not None:
                    edges.append((prev, node))
                prev = node

        Job(2, cluster=cluster_for(2)).launch(app).run()
        assert causal_order_violations(stamps, edges) == []

    @settings(max_examples=30)
    @given(st.lists(st.integers(0, 100), min_size=1, max_size=20))
    def test_property_merge_is_monotone(self, received):
        c = LamportClock()
        last = 0
        for r in received:
            now = c.merge(r)
            assert now > last and now > r
            last = now


class TestRecorder:
    def test_records_send_keys_in_order(self):
        traces = TraceSet()
        job = Job(2, cluster=cluster_for(2), recorder_factory=traces.factory)

        def app(mpi):
            if mpi.rank == 0:
                yield from mpi.send(np.ones(2), dest=1, tag=3)
                yield from mpi.send(np.ones(4), dest=1, tag=4)
            else:
                yield from mpi.recv(source=0, tag=3)
                yield from mpi.recv(source=0, tag=4)

        job.launch(app).run()
        seqs = traces.send_sequences()
        assert len(seqs[0]) == 2
        assert seqs[0][0][-2:] == (3, 16)  # (tag, nbytes)
        assert seqs[0][1][-2:] == (4, 32)
        assert seqs[1] == []

    def test_send_event_key_excludes_timing(self):
        e = SendEvent(("w",), 0, 1, 1, 5, 64)
        assert e.key() == (("w",), 0, 1, 1, 5, 64)


class TestDeterminismChecker:
    def test_ring_is_send_deterministic(self):
        assert bool(check_send_determinism(ring, 4, replays=3))

    def test_anysource_reduce_is_send_deterministic(self):
        """Fig. 2: ANY_SOURCE reception order varies, sends do not."""
        report = check_send_determinism(anysource_reduce, 4, replays=4)
        assert report.send_deterministic, report.divergences

    def test_stencil_is_send_deterministic(self):
        assert bool(check_send_determinism(stencil_allreduce, 4, replays=3, iters=4))

    def test_master_worker_is_not_send_deterministic(self):
        """The counterexample class from [Cappello et al. 2010]."""
        report = check_send_determinism(master_worker, 4, replays=5, tasks=9)
        assert not report.send_deterministic
        assert report.divergences  # at least one divergent send recorded

    def test_report_carries_lengths(self):
        report = check_send_determinism(ring, 3, replays=2)
        assert len(report.lengths) == 2
        assert set(report.lengths[0]) == {0, 1, 2}

    def test_nas_kernels_are_send_deterministic(self):
        from repro.apps.nas import cg_rank, mg_rank

        assert bool(check_send_determinism(cg_rank, 4, replays=3, klass="S", iters=3))
        assert bool(check_send_determinism(mg_rank, 4, replays=3, klass="S", iters=2))

    def test_anysource_apps_are_send_deterministic(self):
        """HPCCG and CM1 — the paper's Table 2 pair — must pass despite
        their wildcard receptions."""
        from repro.apps.cm1 import cm1_rank
        from repro.apps.hpccg import hpccg_rank

        assert bool(check_send_determinism(hpccg_rank, 4, replays=3, nx=8, ny=8, nz=8, iters=3))
        assert bool(check_send_determinism(cm1_rank, 4, replays=3, n=16, steps=2))
