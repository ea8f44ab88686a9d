"""Property tests: the flat collective plumbing ≡ its nonblocking-API reference.

``repro/mpi/collectives/algorithms.py`` writes each of the ten schedules
once, over five flat plumbing primitives (posting preamble and wait loop
fused into one generator frame).  What those primitives must be
*observationally identical* to is the seed engine's delegation tower —
post through ``isend_on``/``irecv_on``, wait in ``wait_handles`` — kept
here as the five reference primitives below.  Every randomized
configuration runs the same schedule in real jobs twice, once over the
stock primitives and once with the reference ones patched over them, and
compares the engine fingerprint: per-rank results, virtual runtime,
dispatched-event and frame counts — matching order, combine order and the
rendezvous handshake are all observable through those.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.mpi.collectives import algorithms as coll
from tests.conftest import PROTOCOLS, fingerprint, make_job

OPS = ["sum", "prod", "max", "min"]
#: mixes power-of-two and odd sizes: allreduce/alltoall switch algorithms
SIZES = [2, 3, 4, 5, 8]
# PROTOCOLS is every shipped protocol: the flat wait loops inline the
# SendHandle completion predicate (needs_ack, then pml_reqs), and mirror's
# multi-request SendHandles, SDR's ack gating and redMPI's per-send hash
# traffic each exercise a different branch of it


# ----------------------------------------------------- reference primitives
def _post_send(api, comm, peer, tag, data):
    return (yield from api.isend_on(comm, comm.ctx_coll, peer, tag, data))


def _post_recv(api, comm, peer, tag):
    return (yield from api.irecv_on(comm, comm.ctx_coll, peer, tag))


def _sendrecv(api, comm, send_peer, recv_peer, tag, data):
    """Post both sides, then progress both to completion (deadlock-free)."""
    rreq = yield from _post_recv(api, comm, recv_peer, tag)
    sreq = yield from _post_send(api, comm, send_peer, tag, data)
    yield from api.wait_handles([sreq, rreq])
    return rreq.data


def _send_wait(api, comm, peer, tag, data):
    req = yield from _post_send(api, comm, peer, tag, data)
    yield from api.wait_handles([req])


def _recv_wait(api, comm, peer, tag):
    req = yield from _post_recv(api, comm, peer, tag)
    yield from api.wait_handles([req])
    return req.data


REFERENCE = {
    fn.__name__: fn for fn in (_sendrecv, _post_send, _post_recv, _send_wait, _recv_wait)
}


def _run(protocol: str, n_ranks: int, app, **kwargs):
    return fingerprint(make_job(protocol, n_ranks).launch(app, **kwargs).run())


def _assert_equivalent(protocol, n, app, **kwargs):
    flat = _run(protocol, n, app, **kwargs)
    with mock.patch.multiple(coll, **REFERENCE):
        spec = _run(protocol, n, app, **kwargs)
    assert flat == spec, f"flat plumbing diverged from its reference ({protocol}, n={n})"


# ------------------------------------------------------------- applications
@settings(max_examples=40, deadline=None)
@given(
    n=st.sampled_from(SIZES),
    root=st.integers(0, 7),
    protocol=st.sampled_from(PROTOCOLS),
    payload=st.sampled_from(["scalar", "array"]),
)
def test_bcast_equivalence(n, root, protocol, payload):
    def app(mpi, root):
        if payload == "array":
            data = np.arange(6, dtype=np.float64) * (mpi.rank + 1)
        else:
            data = float(mpi.rank * 10 + 1)
        return (yield from mpi.bcast(data, root=root))

    _assert_equivalent(protocol, n, app, root=root % n)


@settings(max_examples=40, deadline=None)
@given(
    n=st.sampled_from(SIZES),
    root=st.integers(0, 7),
    op=st.sampled_from(OPS),
    protocol=st.sampled_from(PROTOCOLS),
)
def test_reduce_equivalence(n, root, op, protocol):
    def app(mpi, root, op):
        return (yield from mpi.reduce(float(mpi.rank + 2), op=op, root=root))

    _assert_equivalent(protocol, n, app, root=root % n, op=op)


@settings(max_examples=40, deadline=None)
@given(
    n=st.sampled_from(SIZES),
    op=st.sampled_from(OPS),
    protocol=st.sampled_from(PROTOCOLS),
)
def test_allreduce_equivalence(n, op, protocol):
    def app(mpi, op):
        return (yield from mpi.allreduce(np.array([mpi.rank + 1.0, mpi.rank * 0.5]), op=op))

    _assert_equivalent(protocol, n, app, op=op)


@settings(max_examples=25, deadline=None)
@given(n=st.sampled_from(SIZES), protocol=st.sampled_from(PROTOCOLS))
def test_barrier_equivalence(n, protocol):
    def app(mpi):
        yield from mpi.barrier()
        return mpi.wtime()

    _assert_equivalent(protocol, n, app)


@settings(max_examples=30, deadline=None)
@given(
    n=st.sampled_from(SIZES),
    root=st.integers(0, 7),
    protocol=st.sampled_from(PROTOCOLS),
)
def test_gather_scatter_equivalence(n, root, protocol):
    def app(mpi, root):
        gathered = yield from mpi.gather(mpi.rank * 3 + 1, root=root)
        back = yield from mpi.scatter(gathered if mpi.rank == root else None, root=root)
        return gathered, back

    _assert_equivalent(protocol, n, app, root=root % n)


@settings(max_examples=25, deadline=None)
@given(n=st.sampled_from(SIZES), protocol=st.sampled_from(PROTOCOLS))
def test_allgather_alltoall_equivalence(n, protocol):
    def app(mpi):
        everyone = yield from mpi.allgather(mpi.rank + 0.5)
        swapped = yield from mpi.alltoall([mpi.rank * mpi.size + j for j in range(mpi.size)])
        return everyone, swapped

    _assert_equivalent(protocol, n, app)


@settings(max_examples=25, deadline=None)
@given(
    n=st.sampled_from(SIZES),
    op=st.sampled_from(OPS),
    protocol=st.sampled_from(PROTOCOLS),
)
def test_scan_reduce_scatter_equivalence(n, op, protocol):
    def app(mpi, op):
        prefix = yield from mpi.scan(float(mpi.rank + 1), op=op)
        mine = yield from mpi.reduce_scatter([float(j + 1) for j in range(mpi.size)], op=op)
        return prefix, mine

    _assert_equivalent(protocol, n, app, op=op)


# --------------------------------------------------------- deterministic mix
@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("n", [4, 6])
def test_mixed_collective_program_equivalence(protocol, n):
    """A program interleaving every collective (including a rendezvous-size
    payload) fingerprints identically over both sets of primitives."""

    def app(mpi):
        acc = 0.0
        for it in range(2):
            root = it % mpi.size
            yield from mpi.barrier()
            data = yield from mpi.bcast(np.full(16384, float(mpi.rank + it)), root=root)
            acc += float(data[0])
            r = yield from mpi.reduce(float(mpi.rank), op="sum", root=root)
            if r is not None:
                acc += r
            acc += yield from mpi.allreduce(float(mpi.rank + it), op="max")
            acc += yield from mpi.scan(1.0, op="sum")
        return acc

    _assert_equivalent(protocol, n, app)
