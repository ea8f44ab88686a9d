"""PML internals: protocol selection, hooks, control frames, cancellation."""

import numpy as np
import pytest

from repro.harness.runner import Job, cluster_for
from repro.mpi.errors import MpiError


def _job(n=2):
    return Job(n, cluster=cluster_for(n, 1, cores_per_node=1))


class TestProtocolSelection:
    def test_small_messages_go_eager(self):
        def app(mpi):
            if mpi.rank == 0:
                yield from mpi.send(np.zeros(16), dest=1, tag=1)  # 128 B
            else:
                yield from mpi.recv(source=0, tag=1)

        job = _job()
        res = job.launch(app).run()
        kinds = res.fabric["by_kind"]
        assert kinds.get("eager", 0) == 1
        assert "rts" not in kinds

    def test_large_messages_go_rendezvous(self):
        def app(mpi):
            if mpi.rank == 0:
                yield from mpi.send(np.zeros(8192), dest=1, tag=1)  # 64 KiB
            else:
                yield from mpi.recv(source=0, tag=1)

        job = _job()
        res = job.launch(app).run()
        kinds = res.fabric["by_kind"]
        assert kinds.get("rts", 0) == 1
        assert kinds.get("cts", 0) == 1
        assert kinds.get("data", 0) == 1
        assert "eager" not in kinds

    def test_eager_limit_is_model_dependent(self):
        # intra-node (shared memory) eager limit is 4 KiB, IB is 12 KiB
        def app(mpi):
            if mpi.rank == 0:
                yield from mpi.send(np.zeros(1024), dest=1, tag=1)  # 8 KiB
            else:
                yield from mpi.recv(source=0, tag=1)

        intra = Job(2, cluster=cluster_for(2, 1, cores_per_node=2))
        res_intra = intra.launch(app).run()
        assert res_intra.fabric["by_kind"].get("rts", 0) == 1  # > 4 KiB

        inter = _job()
        res_inter = inter.launch(app).run()
        assert res_inter.fabric["by_kind"].get("eager", 0) == 1  # < 12 KiB


class TestHooks:
    def test_match_hook_fires_with_envelope(self):
        job = _job()
        matches = []
        job.pmls[1].on_match.append(lambda recv, env: matches.append((env.src_rank, env.tag)))

        def app(mpi):
            if mpi.rank == 0:
                yield from mpi.send(np.ones(1), dest=1, tag=9)
            else:
                yield from mpi.recv(source=0, tag=9)

        job.launch(app).run()
        assert matches == [(0, 9)]

    def test_recv_complete_hook_fires_for_unexpected_eager(self):
        """The irecvComplete event the paper's ack placement depends on."""
        job = _job()
        completes = []
        job.pmls[1].on_recv_complete.append(
            lambda env, recv: completes.append((env.seq, recv is None))
        )

        def app(mpi):
            if mpi.rank == 0:
                yield from mpi.send(np.ones(1), dest=1, tag=9)
            else:
                yield from mpi.compute(20e-6)  # message lands unexpected...
                yield from mpi.probe(source=0, tag=9)  # ...and is drained here
                yield from mpi.recv(source=0, tag=9)

        job.launch(app).run()
        assert completes == [(0, True)]  # fired while unmatched

    def test_recv_complete_for_rendezvous_fires_at_data(self):
        job = _job()
        events = []
        job.pmls[1].on_recv_complete.append(lambda env, recv: events.append(env.kind))

        def app(mpi):
            if mpi.rank == 0:
                yield from mpi.send(np.zeros(8192), dest=1, tag=1)
            else:
                yield from mpi.recv(source=0, tag=1)

        job.launch(app).run()
        assert events == ["data"]

    def test_unknown_ctrl_key_raises(self):
        job = _job()

        def app(mpi):
            if mpi.rank == 0:
                yield from mpi.pml.send_ctrl(1, "nonexistent.key", None)
            else:
                yield from mpi.recv(source=0, tag=1)

        job.launch(app)
        with pytest.raises(MpiError):
            job.run()

    def test_ctrl_handler_dispatched(self):
        job = _job()
        got = []

        def handler(env):
            got.append(env.data)
            yield from ()

        job.pmls[1].ctrl_handlers["test.key"] = handler

        def app(mpi):
            if mpi.rank == 0:
                yield from mpi.pml.send_ctrl(1, "test.key", {"x": 1})
                yield from mpi.send(np.ones(1), dest=1, tag=1)
            else:
                yield from mpi.recv(source=0, tag=1)

        job.launch(app).run()
        assert got == [{"x": 1}]

    def test_unserved_ctrl_key_raises(self):
        job = _job()

        def app(mpi):
            if mpi.rank == 0:
                yield from mpi.pml.send_ctrl(1, "test.unserved", None)
                yield from mpi.send(np.ones(1), dest=1, tag=1)
            else:
                yield from mpi.recv(source=0, tag=1)

        with pytest.raises(MpiError, match="proc 1: no handler for ctrl 'test.unserved'"):
            job.launch(app).run()


class TestCancellation:
    def test_cancel_posted_recv(self):
        job = _job()

        def app(mpi):
            if mpi.rank == 1:
                h = yield from mpi.irecv(source=0, tag=1)
                ok = mpi.pml.cancel_recv(h.pml_req)
                assert ok and h.pml_req.cancelled
                # a second receive still matches the message
                data, _ = yield from mpi.recv(source=0, tag=1)
                return float(data[0])
            yield from mpi.send(np.array([5.0]), dest=1, tag=1)

        res = job.launch(app).run()
        assert res.app_results[1] == 5.0

    def test_cancel_sends_to_dead_destination(self):
        job = _job()
        pml = job.pmls[0]

        def app(mpi):
            if mpi.rank == 0:
                h = yield from mpi.isend(np.zeros(8192), dest=1, tag=1)  # rendezvous
                cancelled = mpi.pml.cancel_sends_to(1)
                assert cancelled == 1
                assert h.pml_reqs[0].done  # completed-by-cancellation
            else:
                yield from mpi.compute(1e-3)

        job.launch(app).run()


class TestCounters:
    def test_posted_counters(self):
        job = _job()

        def app(mpi):
            if mpi.rank == 0:
                yield from mpi.send(np.ones(1), dest=1, tag=1)
                yield from mpi.send(np.ones(1), dest=1, tag=2)
            else:
                yield from mpi.recv(source=0, tag=1)
                yield from mpi.recv(source=0, tag=2)

        job.launch(app).run()
        assert job.pmls[0].sends_posted == 2
        assert job.pmls[1].recvs_posted == 2
