"""Collective algorithms.

Standard production algorithms (the ones ob1-based Open MPI picks for
mid-size messages), all expressed over the protocol-interposed p2p layer:

* barrier            — dissemination (Hensgen et al.), ⌈log₂ n⌉ rounds
* bcast              — binomial tree
* reduce             — binomial tree with per-link combine
* allreduce          — recursive doubling (power-of-two), else reduce+bcast
* gather / scatter   — linear (root-rooted), fine at simulated scales
* allgather          — ring, n-1 rounds
* alltoall           — pairwise exchange (XOR schedule when n is 2^k)
* reduce_scatter     — reduce + scatter (block variant)
* scan               — linear chain (inclusive)

Every routine is a generator; ``tag`` space is per-collective-invocation
(derived from the communicator's collective sequence number) with the round
number folded in, so concurrent rounds never cross-match.

Determinism note: combine order is fixed by the tree/ring structure, never
by arrival order — reductions are bitwise reproducible, a precondition for
using these inside send-deterministic applications.

One schedule per collective
---------------------------
Each schedule is written once, over five module-level plumbing primitives
(``_sendrecv``, ``_post_send``, ``_post_recv``, ``_send_wait``,
``_recv_wait``).  The primitives are *flat*: the posting preamble
(recorder + ``protocol.app_isend``/``app_irecv``) and the blocking wait
loop are fused into one generator frame, the way
:meth:`repro.mpi.api.MpiProcess.send`/``recv`` fuse them for blocking
point-to-point — a collective at rank count *n* resumes O(n log n) times
and every delegation frame is paid on each resume.  What each primitive
must be observationally equal to is three lines over ``isend_on`` /
``irecv_on`` / ``wait_handles``; ``tests/test_collectives_equivalence.py``
holds those reference primitives and runs every schedule over both sets
in real jobs (results, virtual times, event and frame counts).
"""

from __future__ import annotations

from typing import Any, Generator, List, Optional, TYPE_CHECKING

from repro.mpi.datatypes import combine, nbytes_of

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.api import MpiProcess
    from repro.mpi.comm import Communicator

__all__ = [
    "barrier",
    "bcast",
    "reduce",
    "allreduce",
    "gather",
    "scatter",
    "allgather",
    "alltoall",
    "reduce_scatter_block",
    "scan",
]

#: rounds per collective are encoded into the tag; 4096 rounds is plenty
_ROUND_SPAN = 4096
#: tiny payload used by synchronization-only messages
_TOKEN = b"\x00"


def _base_tag(comm: "Communicator") -> int:
    return comm.next_coll_tag() * _ROUND_SPAN


# ---------------------------------------------------------------------------
# Flat plumbing: fused post + wait primitives.
#
# Each helper is ONE generator frame wrapping the protocol entry points
# directly; the wait loops replicate the blocking fast paths of
# repro.mpi.api (same passive-handle polls, same pop-one-frame-or-block
# progress step), so the dispatched event stream is identical to posting
# through ``isend_on``/``irecv_on`` and waiting in ``wait_handles`` — only
# host-side frame traversals are saved.
# ---------------------------------------------------------------------------
def _sendrecv(api: "MpiProcess", comm: "Communicator", send_peer: int,
              recv_peer: int, tag: int, data: Any) -> Generator:
    """Flat sendrecv: post both sides, drive both to completion inline.

    Observationally identical to post recv, post send,
    ``wait_handles([sreq, rreq])`` — posting order, recorder calls and the
    progress step are the same; only the delegation tower is gone.
    """
    ctx = comm.ctx_coll
    protocol = api.protocol
    rhandle = yield from protocol.app_irecv(ctx=ctx, source=recv_peer, tag=tag, buf=None)
    world_dst = comm.world_of(send_peer)
    if api.recorder is not None:
        api.recorder.record_send(ctx, comm.rank, send_peer, world_dst, tag, nbytes_of(data))
    shandle = yield from protocol.app_isend(
        ctx=ctx, src_rank=comm.rank, tag=tag, data=data, world_dst=world_dst, synchronous=False
    )
    pml = api.pml
    ep = pml.endpoint
    r_req = rhandle.pml_req
    while True:
        # SendHandle.done inlined: one call per progress iteration of every
        # collective exchange is measurable at paper scale.
        if r_req.done and not shandle.needs_ack:
            reqs = shandle.pml_reqs
            if reqs[0].done if len(reqs) == 1 else all(r.done for r in reqs):
                return r_req.data
        if ep.inbox:
            yield from pml.handle_frame(ep.inbox.popleft())
        else:
            yield ep  # block on the endpoint (allocation-free waiter)


def _post_send(api: "MpiProcess", comm: "Communicator", peer: int, tag: int, data: Any) -> Generator:
    """Flat posting preamble of ``isend_on`` on the collective context."""
    world_dst = comm.world_of(peer)
    if api.recorder is not None:
        api.recorder.record_send(comm.ctx_coll, comm.rank, peer, world_dst, tag, nbytes_of(data))
    handle = yield from api.protocol.app_isend(
        ctx=comm.ctx_coll, src_rank=comm.rank, tag=tag, data=data, world_dst=world_dst, synchronous=False
    )
    return handle


def _post_recv(api: "MpiProcess", comm: "Communicator", peer: int, tag: int) -> Generator:
    """Flat posting preamble of ``irecv_on`` on the collective context."""
    handle = yield from api.protocol.app_irecv(ctx=comm.ctx_coll, source=peer, tag=tag, buf=None)
    return handle


def _send_wait(api: "MpiProcess", comm: "Communicator", peer: int, tag: int, data: Any) -> Generator:
    """Fused blocking send on the collective context (one frame)."""
    handle = yield from _post_send(api, comm, peer, tag, data)
    pml = api.pml
    ep = pml.endpoint
    while not handle.done:
        if ep.inbox:
            yield from pml.handle_frame(ep.inbox.popleft())
        else:
            yield ep  # block on the endpoint (allocation-free waiter)


def _recv_wait(api: "MpiProcess", comm: "Communicator", peer: int, tag: int) -> Generator:
    """Fused blocking receive on the collective context (one frame)."""
    handle = yield from api.protocol.app_irecv(
        ctx=comm.ctx_coll, source=peer, tag=tag, buf=None
    )
    pml = api.pml
    ep = pml.endpoint
    req = handle.pml_req
    while not req.done:
        if ep.inbox:
            yield from pml.handle_frame(ep.inbox.popleft())
        else:
            yield ep  # block on the endpoint (allocation-free waiter)
    return req.data


# --------------------------------------------------------------------- sync
def barrier(api: "MpiProcess", comm: "Communicator") -> Generator:
    """Dissemination barrier: round k talks to rank ± 2^k."""
    n = comm.size
    if n == 1:
        return
    me = comm.rank
    tag0 = _base_tag(comm)
    k = 0
    dist = 1
    while dist < n:
        to = (me + dist) % n
        frm = (me - dist) % n
        yield from _sendrecv(api, comm, to, frm, tag0 + k, _TOKEN)
        dist <<= 1
        k += 1


# --------------------------------------------------------------- tree moves
def bcast(api: "MpiProcess", comm: "Communicator", data: Any, root: int) -> Generator:
    """Binomial-tree broadcast; returns the payload on every rank."""
    n = comm.size
    if n == 1:
        return data
    me = (comm.rank - root) % n  # virtual rank: root becomes 0
    tag0 = _base_tag(comm)
    # Receive phase: my parent clears my lowest set bit.
    if me != 0:
        mask = me & (-me)
        parent = (me - mask + root) % n
        data = yield from _recv_wait(api, comm, parent, tag0)
        mask >>= 1
    else:
        mask = 1 << ((n - 1).bit_length() - 1)
    # Send phase: forward to children below my lowest set bit.
    while mask >= 1:
        child = me + mask
        if child < n:
            yield from _send_wait(api, comm, (child + root) % n, tag0, data)
        mask >>= 1
    return data


def reduce(api: "MpiProcess", comm: "Communicator", data: Any, op: str, root: int) -> Generator:
    """Binomial-tree reduction; result only meaningful at *root*."""
    n = comm.size
    if n == 1:
        return data
    me = (comm.rank - root) % n
    tag0 = _base_tag(comm)
    acc = data
    mask = 1
    while mask < n:
        if me & mask:
            parent = ((me & ~mask) + root) % n
            yield from _send_wait(api, comm, parent, tag0, acc)
            break
        child = me | mask
        if child < n:
            got = yield from _recv_wait(api, comm, (child + root) % n, tag0)
            acc = combine(op, acc, got)
        mask <<= 1
    return acc if comm.rank == root else None


def allreduce(api: "MpiProcess", comm: "Communicator", data: Any, op: str) -> Generator:
    """Recursive doubling for power-of-two sizes, reduce+bcast otherwise."""
    n = comm.size
    if n == 1:
        return data
    if n & (n - 1):  # not a power of two
        acc = yield from reduce(api, comm, data, op, root=0)
        acc = yield from bcast(api, comm, acc, root=0)
        return acc
    me = comm.rank
    tag0 = _base_tag(comm)
    acc = data
    mask = 1
    k = 0
    while mask < n:
        peer = me ^ mask
        other = yield from _sendrecv(api, comm, peer, peer, tag0 + k, acc)
        # Fixed combine order (lower rank's contribution first) so every
        # rank computes bitwise-identical results.
        acc = combine(op, acc, other) if peer > me else combine(op, other, acc)
        mask <<= 1
        k += 1
    return acc


# ------------------------------------------------------------ data movement
def gather(api: "MpiProcess", comm: "Communicator", data: Any, root: int) -> Generator:
    """Linear gather; returns the rank-ordered list at root, None elsewhere."""
    n = comm.size
    tag0 = _base_tag(comm)
    if comm.rank == root:
        out: List[Any] = [None] * n
        out[root] = data
        handles = []
        for r in range(n):
            if r == root:
                continue
            handle = yield from _post_recv(api, comm, r, tag0)
            handles.append((r, handle))
        yield from api.wait_handles([h for _r, h in handles])
        for r, handle in handles:
            out[r] = handle.data
        return out
    yield from _send_wait(api, comm, root, tag0, data)
    return None


def scatter(api: "MpiProcess", comm: "Communicator", chunks: Optional[List[Any]], root: int) -> Generator:
    """Linear scatter of a rank-indexed list from root."""
    n = comm.size
    tag0 = _base_tag(comm)
    if comm.rank == root:
        if chunks is None or len(chunks) != n:
            raise ValueError(f"scatter at root requires a list of {n} chunks")
        handles = []
        for r in range(n):
            if r == root:
                continue
            handle = yield from _post_send(api, comm, r, tag0, chunks[r])
            handles.append(handle)
        yield from api.wait_handles(handles)
        return chunks[root]
    return (yield from _recv_wait(api, comm, root, tag0))


def allgather(api: "MpiProcess", comm: "Communicator", data: Any) -> Generator:
    """Ring allgather: n-1 rounds, each forwarding the next slice."""
    n = comm.size
    me = comm.rank
    out: List[Any] = [None] * n
    out[me] = data
    if n == 1:
        return out
    tag0 = _base_tag(comm)
    right = (me + 1) % n
    left = (me - 1) % n
    carry = data
    for k in range(n - 1):
        carry = yield from _sendrecv(api, comm, right, left, tag0 + k, carry)
        out[(me - 1 - k) % n] = carry
    return out


def alltoall(api: "MpiProcess", comm: "Communicator", chunks: List[Any]) -> Generator:
    """Pairwise-exchange alltoall (XOR schedule for power-of-two sizes)."""
    n = comm.size
    me = comm.rank
    if chunks is None or len(chunks) != n:
        raise ValueError(f"alltoall requires a list of {n} chunks")
    out: List[Any] = [None] * n
    out[me] = chunks[me]
    tag0 = _base_tag(comm)
    pow2 = n & (n - 1) == 0
    for k in range(1, n):
        if pow2:
            peer = me ^ k
            send_peer = recv_peer = peer
        else:
            send_peer = (me + k) % n
            recv_peer = (me - k) % n
        got = yield from _sendrecv(api, comm, send_peer, recv_peer, tag0 + k, chunks[send_peer])
        out[recv_peer] = got
    return out


def reduce_scatter_block(api: "MpiProcess", comm: "Communicator", chunks: List[Any], op: str) -> Generator:
    """Block reduce-scatter: elementwise reduce of rank-indexed chunk lists,
    each rank keeping its own chunk.  Implemented as reduce + scatter."""
    n = comm.size
    if chunks is None or len(chunks) != n:
        raise ValueError(f"reduce_scatter requires a list of {n} chunks")
    # combine() is elementwise over lists, so a plain tree reduce of the
    # chunk lists followed by a scatter implements the block variant.
    reduced = yield from reduce(api, comm, list(chunks), op=op, root=0)
    return (yield from scatter(api, comm, reduced, root=0))


def scan(api: "MpiProcess", comm: "Communicator", data: Any, op: str) -> Generator:
    """Inclusive prefix scan along the rank order (linear chain)."""
    me = comm.rank
    n = comm.size
    tag0 = _base_tag(comm)
    acc = data
    if me > 0:
        got = yield from _recv_wait(api, comm, me - 1, tag0)
        acc = combine(op, got, acc)
    if me < n - 1:
        yield from _send_wait(api, comm, me + 1, tag0, acc)
    return acc
