"""Property tests: the fused blocking bodies ≡ their nonblocking-API reference.

:class:`~repro.mpi.api.MpiProcess` has one fused generator per blocking
call on an explicit matching context — ``send_on``, ``recv_on`` and
``sendrecv_on`` (posting preamble and wait loop in one frame).  Blocking
point-to-point runs on them with ``comm.ctx_p2p``, and every schedule in
``repro/mpi/collectives/algorithms.py`` with ``comm.ctx_coll``.  What
those bodies must be *observationally identical* to is the seed engine's
delegation tower — post through ``isend_on``/``irecv_on``, wait in
``wait_handles`` — kept here as the three reference methods below.  Every
randomized configuration runs the same program in real jobs twice, once
over the stock bodies and once with the reference ones patched over them,
and compares the engine fingerprint: per-rank results, virtual runtime,
dispatched-event and frame counts — matching order, combine order and the
rendezvous handshake are all observable through those.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.mpi.api import MpiProcess
from tests.conftest import PROTOCOLS, fingerprint, make_job

OPS = ["sum", "prod", "max", "min"]
#: mixes power-of-two and odd sizes: allreduce/alltoall switch algorithms
SIZES = [2, 3, 4, 5, 8]
# PROTOCOLS is every shipped protocol: the fused wait loops inline the
# SendHandle completion predicate (needs_ack, then pml_reqs), and mirror's
# multi-request SendHandles, SDR's ack gating and redMPI's per-send hash
# traffic each exercise a different branch of it


# ----------------------------------------------------- reference primitives
def send_on(self, comm, ctx, dest, tag, data):
    handle = yield from self.isend_on(comm, ctx, dest, tag, data)
    yield from self.wait_handles([handle])


def recv_on(self, comm, ctx, source, tag, buf=None):
    handle = yield from self.irecv_on(comm, ctx, source, tag, buf)
    yield from self.wait_handles([handle])
    return handle.data, handle.status


def sendrecv_on(self, comm, ctx, dest, sendtag, senddata, source, recvtag):
    """Post both sides, then progress both to completion (deadlock-free)."""
    rhandle = yield from self.irecv_on(comm, ctx, source, recvtag)
    shandle = yield from self.isend_on(comm, ctx, dest, sendtag, senddata)
    yield from self.wait_handles([shandle, rhandle])
    return rhandle.data, rhandle.status


REFERENCE = {fn.__name__: fn for fn in (send_on, recv_on, sendrecv_on)}


def _run(protocol: str, n_ranks: int, app, **kwargs):
    return fingerprint(make_job(protocol, n_ranks).launch(app, **kwargs).run())


def _assert_equivalent(protocol, n, app, **kwargs):
    fused = _run(protocol, n, app, **kwargs)
    with mock.patch.multiple(MpiProcess, **REFERENCE):
        spec = _run(protocol, n, app, **kwargs)
    assert fused == spec, f"fused bodies diverged from their reference ({protocol}, n={n})"


def test_reference_is_what_gets_patched():
    """The patch reaches the bodies both point-to-point and collectives
    resume through (a guard against testing the stock bodies twice)."""
    calls = []

    def spy(self, comm, ctx, dest, tag, data):
        calls.append(ctx)
        yield from send_on(self, comm, ctx, dest, tag, data)

    def app(mpi):
        if mpi.rank == 0:
            yield from mpi.send(1.0, dest=1)
        elif mpi.rank == 1:
            yield from mpi.recv(source=0)
        return (yield from mpi.bcast(mpi.rank, root=0))

    with mock.patch.multiple(MpiProcess, **{**REFERENCE, "send_on": spy}):
        _run("native", 2, app)
    assert len(calls) == 2 and calls[0] != calls[1]


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
    payload) fingerprints identically over both sets of bodies."""

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


# ------------------------------------------------------ point-to-point
#: one eager and one rendezvous-size payload (16384 float64 = 128 KiB)
P2P_PAYLOADS = ["scalar", "large"]


def _payload(kind, rank):
    return float(rank + 1) if kind == "scalar" else np.full(16384, float(rank + 1))


def _digest(data):
    return float(np.sum(data))


@pytest.mark.parametrize("payload", P2P_PAYLOADS)
@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("n", [3, 4])
def test_send_recv_ring_equivalence(protocol, n, payload):
    """Blocking send/recv around the world ring (even ranks send first)."""

    def app(mpi):
        right = (mpi.rank + 1) % mpi.size
        left = (mpi.rank - 1) % mpi.size
        out = []
        for step in range(2):
            data = _payload(payload, mpi.rank + step)
            if mpi.rank % 2 == 0:
                yield from mpi.send(data, dest=right, tag=step)
                got, status = yield from mpi.recv(source=left, tag=step)
            else:
                got, status = yield from mpi.recv(source=left, tag=step)
                yield from mpi.send(data, dest=right, tag=step)
            out.append((_digest(got), status.source, status.tag, mpi.wtime()))
        return out

    _assert_equivalent(protocol, n, app)


@pytest.mark.parametrize("payload", P2P_PAYLOADS)
@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("n", [3, 4])
def test_sendrecv_ring_equivalence(protocol, n, payload):
    """MPI_Sendrecv shifts around the world ring, both directions."""

    def app(mpi):
        right = (mpi.rank + 1) % mpi.size
        left = (mpi.rank - 1) % mpi.size
        out = []
        for step in range(3):
            dest, source = (right, left) if step % 2 == 0 else (left, right)
            got, status = yield from mpi.sendrecv(
                _payload(payload, mpi.rank), dest=dest, source=source, sendtag=step, recvtag=step
            )
            out.append((_digest(got), status.source, status.tag, mpi.wtime()))
        return out

    _assert_equivalent(protocol, n, app)


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("n", [3, 5])
def test_any_source_fan_in_equivalence(protocol, n):
    """Rank 0 receives from ANY_SOURCE / ANY_TAG, then answers each sender."""

    def app(mpi):
        if mpi.rank == 0:
            seen = []
            for _ in range(2 * (mpi.size - 1)):
                got, status = yield from mpi.recv(source=mpi.ANY_SOURCE, tag=mpi.ANY_TAG)
                seen.append((got, status.source, status.tag))
            for peer in range(1, mpi.size):
                yield from mpi.send(peer * 10.0, dest=peer, tag=99)
            return seen, mpi.wtime()
        for k in range(2):
            yield from mpi.compute(1e-6 * ((mpi.rank * 7 + k) % 3))
            yield from mpi.send(float(mpi.rank * 100 + k), dest=0, tag=k)
        reply, _status = yield from mpi.recv(source=0, tag=99)
        return reply, mpi.wtime()

    _assert_equivalent(protocol, n, app)
