"""The send-determinism checker and the send capture it runs on."""

import numpy as np

from repro.apps.patterns import anysource_reduce, master_worker, ring, stencil_allreduce
from repro.harness.runner import Job, cluster_for
from repro.network.fabric import Frame
from repro.trace.determinism import capture_sends, check_send_determinism


class TestRecorder:
    """The checker's capture: the kernel's trace_hook reads each send's
    ``eager``/``rts`` frame and orders a process's sends by ``msg_id``."""

    def test_records_send_keys_in_order(self):
        job = Job(2, cluster=cluster_for(2))
        read_sends = capture_sends(job)

        def app(mpi):
            if mpi.rank == 0:
                yield from mpi.send(np.ones(2), dest=1, tag=3)
                yield from mpi.send(np.ones(4), dest=1, tag=4)
            else:
                yield from mpi.recv(source=0, tag=3)
                yield from mpi.recv(source=0, tag=4)

        job.launch(app).run()
        seqs = read_sends()
        assert len(seqs[0]) == 2
        assert seqs[0][0][-2:] == (3, 16)  # (tag, nbytes)
        assert seqs[0][1][-2:] == (4, 32)
        assert seqs[1] == []

    def test_send_event_key_excludes_timing(self):
        job = Job(2, cluster=cluster_for(2))
        read_sends = capture_sends(job)

        def app(mpi):
            if mpi.rank == 0:
                yield from mpi.send(np.ones(8), dest=1, tag=5)
            else:
                yield from mpi.recv(source=0, tag=5)

        job.launch(app).run()
        assert read_sends()[0] == [(("w", "p"), 0, 1, 5, 64)]  # (ctx, src_rank, world_dst, tag, nbytes)

    def test_eager_rendezvous_and_ssend_come_back_in_program_order(self):
        """Rank 0 posts an eager send to another node, then a rendezvous send
        and an ``ssend`` on its own node: the wire delivers the later, local
        ``rts`` frames first, and ``msg_id`` order restores program order."""
        job = Job(3, cluster=cluster_for(3, cores_per_node=2))
        assert job.placement.node_of(0) == job.placement.node_of(1) != job.placement.node_of(2)
        read_sends = capture_sends(job)
        capture = job.sim.trace_hook
        arrivals = []

        def spy(now, event):
            if type(event) is Frame and event.kind in ("eager", "rts"):
                arrivals.append(event.tag)
            capture(now, event)

        job.sim.trace_hook = spy

        def app(mpi):
            if mpi.rank == 0:
                eager = yield from mpi.isend(np.zeros(1024), dest=2, tag=1)  # 8 KiB < 12 KiB inter-node limit
                yield from mpi.send(np.zeros(1024), dest=1, tag=2)  # 8 KiB > 4 KiB intra-node limit
                yield from mpi.ssend(np.ones(1), dest=1, tag=3)
                yield from mpi.wait(eager)
            elif mpi.rank == 1:
                yield from mpi.recv(source=0, tag=2)
                yield from mpi.recv(source=0, tag=3)
            else:
                yield from mpi.recv(source=0, tag=1)

        job.launch(app).run()
        assert arrivals[0] == 2  # the rendezvous rts overtook the eager frame
        ctx = ("w", "p")
        assert read_sends()[0] == [(ctx, 0, 2, 1, 8192), (ctx, 0, 1, 2, 8192), (ctx, 0, 1, 3, 8)]


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
