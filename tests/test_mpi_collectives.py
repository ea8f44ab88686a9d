"""Collectives: correctness against numpy references, across sizes."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.mpi.datatypes import Phantom
from tests.conftest import run_app

SIZES = [1, 2, 3, 4, 5, 7, 8, 16]


@pytest.mark.parametrize("n", SIZES)
def test_barrier_synchronizes(n):
    def app(mpi):
        # stagger entry; everyone must leave at (or after) the slowest entry
        yield from mpi.compute(mpi.rank * 10e-6)
        yield from mpi.barrier()
        return mpi.wtime()

    res = run_app(app, n)
    slowest_entry = (n - 1) * 10e-6
    for t in res.app_results.values():
        assert t >= slowest_entry - 1e-12


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("root", [0, "last"])
def test_bcast_from_any_root(n, root):
    rootv = n - 1 if root == "last" else 0

    def app(mpi):
        data = np.arange(5.0) * 3 if mpi.rank == rootv else None
        out = yield from mpi.bcast(data, root=rootv)
        return list(out)

    res = run_app(app, n)
    for r in range(n):
        assert res.app_results[r] == list(np.arange(5.0) * 3)


@pytest.mark.parametrize("n", SIZES)
def test_reduce_sum_at_root(n):
    def app(mpi):
        out = yield from mpi.reduce(float(mpi.rank + 1), op="sum", root=0)
        return out

    res = run_app(app, n)
    assert res.app_results[0] == sum(range(1, n + 1))
    for r in range(1, n):
        assert res.app_results[r] is None


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("op,ref", [("sum", sum), ("max", max), ("min", min)])
def test_allreduce_ops(n, op, ref):
    def app(mpi):
        return (yield from mpi.allreduce(float(mpi.rank * 2 + 1), op=op))

    res = run_app(app, n)
    expected = float(ref(r * 2 + 1 for r in range(n)))
    for r in range(n):
        assert res.app_results[r] == expected


@pytest.mark.parametrize("n", SIZES)
def test_allreduce_arrays_bitwise_identical(n):
    def app(mpi):
        vec = np.arange(8.0) + mpi.rank
        out = yield from mpi.allreduce(vec, op="sum")
        return out.tobytes()

    res = run_app(app, n)
    blobs = set(res.app_results.values())
    assert len(blobs) == 1  # reproducible reduction order
    out = np.frombuffer(blobs.pop())
    assert np.array_equal(out, np.arange(8.0) * n + sum(range(n)))


@pytest.mark.parametrize("n", SIZES)
def test_gather_collects_in_rank_order(n):
    def app(mpi):
        return (yield from mpi.gather(mpi.rank * 10, root=0))

    res = run_app(app, n)
    assert res.app_results[0] == [r * 10 for r in range(n)]


@pytest.mark.parametrize("n", SIZES)
def test_scatter_distributes(n):
    def app(mpi):
        chunks = [f"chunk{r}" for r in range(mpi.size)] if mpi.rank == 0 else None
        return (yield from mpi.scatter(chunks, root=0))

    res = run_app(app, n)
    for r in range(n):
        assert res.app_results[r] == f"chunk{r}"


@pytest.mark.parametrize("n", SIZES)
def test_allgather_everyone_gets_everything(n):
    def app(mpi):
        return (yield from mpi.allgather(mpi.rank + 100))

    res = run_app(app, n)
    for r in range(n):
        assert res.app_results[r] == [v + 100 for v in range(n)]


@pytest.mark.parametrize("n", SIZES)
def test_alltoall_transposes(n):
    def app(mpi):
        chunks = [(mpi.rank, dst) for dst in range(mpi.size)]
        return (yield from mpi.alltoall(chunks))

    res = run_app(app, n)
    for r in range(n):
        assert res.app_results[r] == [(src, r) for src in range(n)]


@pytest.mark.parametrize("n", [2, 4, 8])
def test_reduce_scatter_block(n):
    def app(mpi):
        chunks = [float((mpi.rank + 1) * (dst + 1)) for dst in range(mpi.size)]
        return (yield from mpi.reduce_scatter(chunks, op="sum"))

    res = run_app(app, n)
    total = sum(r + 1 for r in range(n))
    for r in range(n):
        assert res.app_results[r] == total * (r + 1)


@pytest.mark.parametrize("n", SIZES)
def test_scan_inclusive_prefix(n):
    def app(mpi):
        return (yield from mpi.scan(float(mpi.rank + 1), op="sum"))

    res = run_app(app, n)
    for r in range(n):
        assert res.app_results[r] == sum(range(1, r + 2))


def test_phantom_payloads_flow_through_collectives():
    def app(mpi):
        x = yield from mpi.allreduce(Phantom(64), op="sum")
        g = yield from mpi.allgather(Phantom(32))
        return isinstance(x, Phantom), len(g)

    res = run_app(app, 4)
    assert res.app_results[0] == (True, 4)


def test_back_to_back_collectives_do_not_crosstalk():
    def app(mpi):
        a = yield from mpi.allreduce(1.0, op="sum")
        b = yield from mpi.allreduce(2.0, op="sum")
        c = yield from mpi.bcast(mpi.rank if mpi.rank == 0 else None, root=0)
        yield from mpi.barrier()
        d = yield from mpi.allgather(mpi.rank)
        return a, b, c, d

    res = run_app(app, 8)
    for r in range(8):
        a, b, c, d = res.app_results[r]
        assert (a, b, c) == (8.0, 16.0, 0)
        assert d == list(range(8))


@settings(max_examples=20, deadline=None)
@given(n=st.integers(min_value=1, max_value=9), seed=st.integers(0, 100))
def test_property_allreduce_matches_numpy(n, seed):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=n)

    def app(mpi):
        return (yield from mpi.allreduce(float(values[mpi.rank]), op="sum"))

    res = run_app(app, n)
    # recursive doubling / tree order may differ from np.sum order; allow fp tolerance
    for r in range(n):
        assert res.app_results[r] == pytest.approx(values.sum(), rel=1e-12, abs=1e-12)


def test_collectives_work_under_replication():
    def app(mpi):
        s = yield from mpi.allreduce(float(mpi.rank), op="sum")
        g = yield from mpi.allgather(mpi.rank)
        return s, g

    res = run_app(app, 6, protocol="sdr")
    for proc, (s, g) in res.app_results.items():
        assert s == 15.0 and g == list(range(6))


def test_entry_points_hand_back_the_algorithm_generator():
    """``MpiProcess.<collective>`` returns the algorithm's own generator, so
    a wake inside a collective resumes one frame fewer (``yield from
    mpi.allreduce(...)`` in applications is unchanged)."""
    from repro.harness.runner import Job

    mpi = Job(2).mpis[0]
    calls = {
        "barrier": (), "bcast": (1,), "reduce": (1,), "allreduce": (1,), "gather": (1,),
        "scatter": ([1, 2],), "allgather": (1,), "alltoall": ([1, 2],),
        "reduce_scatter": ([1, 2],), "scan": (1,),
        "comm_dup": (), "comm_split": (0,), "comm_create": (mpi.world.group,),
    }  # fmt: skip
    for name, args in calls.items():
        gen = getattr(mpi, name)(*args)
        try:
            assert not gen.gi_code.co_filename.endswith("api.py"), name
        finally:
            gen.close()
