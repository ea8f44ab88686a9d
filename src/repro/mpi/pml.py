"""Point-to-point Management Layer (the ob1 analogue).

Implements eager and rendezvous transfer protocols over the fabric, message
matching, and — crucially for this paper — the interposition surface the
replication layer uses (§4.1):

* ``on_match`` hooks fire at the ``pml_match`` event: an incoming message
  has been paired with a posted receive (first packet arrived);
* ``on_recv_complete`` hooks fire at the ``pml_recv_complete`` event: a
  message is *fully received at the library level* — for eager messages this
  is frame arrival (even if the receive has not been posted yet), for
  rendezvous it is arrival of the DATA frame.  SDR-MPI sends its acks here
  (§3.3, Algorithm 1 line 15);
* ``incoming_filter`` lets a protocol intercept application messages before
  matching (SDR-MPI uses this for duplicate suppression and per-channel
  in-order release);
* ``ctrl_table`` dispatches protocol-private frames (acks, leader
  decisions, hashes, recovery notices) that never touch MPI matching, and
  ``svc_table`` the membership service's notices.  Both are the job's
  tables of the protocol class's unbound methods, called as
  ``handler(protocol, env)``, so no process holds a bound method per
  handler; a ctrl key the table does not serve goes to this PML's own
  ``ctrl_handlers``, called as ``handler(env)``.

Cost accounting: every injected frame charges the sender
``model.send_overhead`` of CPU busy time; every handled frame charges the
receiver ``model.recv_overhead``.  Wire serialization and propagation are
charged by the fabric.  There is **no asynchronous progress**: frames are
handled only inside :meth:`Pml.progress_step`, which runs only while the
owning process executes an MPI call.

Message ownership contract
--------------------------
A message is one :class:`~repro.network.fabric.Frame` — its routing and
its envelope in one object, every kind — acquired once from the job-wide
free list (:meth:`Fabric.acquire <repro.network.fabric.Fabric.acquire>`)
when it is posted, and released once.  It has **exactly one owner** at
every point in its lifetime:

* the sender owns it until it injects it; the wire and then the receiving
  endpoint's inbox own it until this PML handles it;
* on the receive side, ownership moves through a fixed pipeline —
  ``incoming_filter`` (which may park the message, e.g. in a reorder
  buffer) → :meth:`Pml.deliver_to_matching` (which *consumes* it: either
  the unexpected queue holds it, or matching completes) — and it is
  released by whoever consumes it last: the matched receive, the returning
  ctrl handler, the dropped duplicate, or the end-of-run :meth:`Pml.reap`;
* hooks (``on_match``, ``on_recv_complete``) and ctrl handlers
  receive the message as a **borrow**: it is valid for the duration of
  the handler invocation (including every resumption of a generator
  handler until it finishes) and is recycled right after.  There is no
  refcount and no way to hold a message past the call: a protocol that
  needs it later copies out the fields it needs (a payload, a digest, a
  sequence number), as every in-tree protocol does.  A svc notice's key
  and value are copied out and the frame released before its handler runs.

Payloads are *not* part of the recycling: ``frame.data`` refers to the
copy-on-write snapshot machinery of :mod:`repro.mpi.datatypes`, and
``Pml._complete_recv`` hands that reference to the receive request before
the shell is recycled.  ``tests/test_pooling_equivalence.py`` pins the
pool to the fingerprints plain allocation left behind (its last run,
recorded in ``tests/data/spec_fingerprints.jsonl``), and the harness
asserts the balance — every acquire matched by a release or an accounted
strand — at the end of every run, crashes included.  Fail-stop teardown
is what makes crashy runs provable: every receive-pipeline span that owns
a message across a yield carries a guard routing the abandoned reference
to :meth:`Pml.strand`, and the fabric counts the messages dropped at its
own fail-stop sites (see :mod:`repro.network.fabric`).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

import numpy as np

from repro.mpi.datatypes import copy_payload, nbytes_of
from repro.mpi.errors import MpiError, TruncationError
from repro.mpi.matching import MatchEngine
from repro.mpi.status import Status
from repro.network.fabric import Fabric, Frame
from repro.sim.kernel import Simulator

__all__ = [
    "Pml",
    "PmlRecvRequest",
    "PmlSendRequest",
    "RTS_BYTES",
    "CTS_BYTES",
    "CTRL_BYTES",
]

#: wire size of a rendezvous request-to-send frame
RTS_BYTES = 64
#: wire size of a clear-to-send frame
CTS_BYTES = 32
#: default wire size of protocol control frames (acks etc.)
CTRL_BYTES = 32


class PmlSendRequest:
    """Library-level send request: done at ``isendComplete``.

    Holds no message reference: under the ownership contract the eager
    message belongs to the wire (and then to the receiving PML) the
    moment it is injected, and rendezvous retention lives in the PML's
    ``_rdv_sends`` table (plain fields, no pooled object) until the CTS
    arrives.
    """

    __slots__ = ("dst_phys", "nbytes", "done", "msg_id", "cancelled")

    def __init__(self, dst_phys: int, nbytes: int, msg_id: int) -> None:
        self.dst_phys = dst_phys
        self.nbytes = nbytes
        self.msg_id = msg_id
        self.done = False
        self.cancelled = False


class PmlRecvRequest:
    """Library-level receive request.

    ``done`` is application-level completion (payload copied into the user
    buffer, status filled).
    """

    __slots__ = (
        "ctx",
        "source",
        "tag",
        "buf",
        "done",
        "data",
        "status",
        "cancelled",
    )

    def __init__(self, ctx: Any, source: int, tag: int, buf: Any = None) -> None:
        self.ctx = ctx
        self.source = source
        self.tag = tag
        self.buf = buf
        self.done = False
        self.data: Any = None
        self.status: Optional[Status] = None
        self.cancelled = False


HookFn = Callable[..., Optional[Generator]]

#: the handler tables of a PML its job has not set up (never mutated)
_NO_HANDLERS: Dict[str, Callable] = {}


class Pml:
    """Per-physical-process point-to-point layer.

    A ``__slots__`` class whose ``__init__`` builds only the hot minimum:
    jobs construct one PML per physical process, so every eager dict and
    per-proc string here multiplies by 8192+ at scale.  Cold state —
    the rendezvous tables, the strand attribution — is lazy behind
    ``None`` sentinels, and the per-peer cost caches are **views into the
    job-level shared table** (see :class:`repro.network.fabric.CostTable`):
    all PMLs on a node share one send row and one recv row, keyed by peer
    node.
    """

    __slots__ = (
        "sim",
        "fabric",
        "proc",
        "endpoint",
        "matching",
        "_msg_id",
        "_rdv_sends",
        "_rdv_recvs",
        "protocol",
        "ctrl_table",
        "svc_table",
        "on_match",
        "on_recv_complete",
        "incoming_filter",
        "ctrl_handlers",
        "_node_of",
        "_send_row",
        "_recv_row",
        "sends_posted",
        "recvs_posted",
    )

    def __init__(self, sim: Simulator, fabric: Fabric, proc: int) -> None:
        self.sim = sim
        self.fabric = fabric
        self.proc = proc
        self.endpoint = fabric.endpoint(proc)
        self.matching = MatchEngine()
        self._msg_id = 0
        # outstanding rendezvous state, lazily allocated: eager-only
        # workloads (every small-message tier) never touch it
        #: msg_id -> (request, ctx, src_rank, tag, world_src, world_dst, seq, payload)
        self._rdv_sends: Optional[Dict[int, tuple]] = None
        self._rdv_recvs: Optional[Dict[Tuple[int, int], PmlRecvRequest]] = None
        # interposition surface
        #: the protocol on this PML and its class's handler tables, shared
        #: by every stack of the job and never mutated here (set by
        #: ``Job._build_stack``)
        self.protocol: Any = None
        self.ctrl_table: Dict[str, Callable[..., Optional[Generator]]] = _NO_HANDLERS
        self.svc_table: Dict[str, Callable[..., Generator]] = _NO_HANDLERS
        self.on_match: List[HookFn] = []
        self.on_recv_complete: List[HookFn] = []
        #: protocol hook intercepting application messages before matching;
        #: one returning False owns the message (see :mod:`repro.core.interpose`)
        self.incoming_filter: Optional[Callable[[Frame], Generator]] = None
        #: ctrl keys ``ctrl_table`` does not serve, called as
        #: ``handler(env)``; ctrl messages are recycled the moment a
        #: handler returns — handlers get a borrow and must copy out
        #: whatever they need
        self.ctrl_handlers: Dict[str, Callable[[Frame], Generator]] = {}
        # Per-peer cost views into the job-level shared CostTable: models
        # are immutable for a job's lifetime and identical per node pair,
        # so the rows are shared by every PML on this node and keyed by
        # peer *node* (one list index + one dict probe per frame).
        table = fabric.cost_table
        self._node_of = table.node_of
        my_node = self._node_of[proc]
        self._send_row: Dict[int, Tuple[float, int]] = table.send_row(my_node)
        self._recv_row: Dict[int, float] = table.recv_row(my_node)
        # counters
        self.sends_posted = 0
        self.recvs_posted = 0

    # ------------------------------------------------------------ utilities
    def _next_msg_id(self) -> int:
        self._msg_id += 1
        return self._msg_id

    def _send_cost_to(self, dst: int) -> Tuple[float, int]:
        """Row-fill slow path: price *dst* and publish it for every sharer."""
        model = self.fabric.model_for(self.proc, dst)
        cost = (model.send_overhead, model.eager_limit)
        self._send_row[self._node_of[dst]] = cost
        return cost

    # ------------------------------------------------------- message arena
    def strand(self, env: Frame) -> None:
        """Account one message abandoned mid-pipeline by a fail-stop
        teardown: a process torn down while suspended inside frame handling
        (a CPU charge, a hook, a ctrl handler) strands the message the
        pipeline owned — ``(0, 1)`` at ``abandoned_pipeline``."""
        self.fabric.strand_frame(env, "abandoned_pipeline", on_wire=False)

    def inject(self, frame: Frame) -> Generator:
        """Charge sender overhead and put one acquired message on the wire.

        The zero-overhead case (LinearCostModel, teaching setups) yields
        nothing.  The hot send paths skip this generator altogether: they
        charge :meth:`send_cost` themselves, then :meth:`post_send` /
        :meth:`inject_ctrl`.
        """
        cost = self.send_cost(frame.dst)
        if cost > 0.0:
            try:
                yield cost
            except BaseException:
                # Fail-stop crash mid-charge: the generator is being torn
                # down with the un-injected message in hand — account it.
                self.strand(frame)
                raise
        self.fabric.inject(frame)

    def cts_for(self, rts: Frame) -> Frame:
        """A clear-to-send answering *rts* (the caller injects it)."""
        return self.fabric.acquire(
            "cts", self.proc, rts.src, CTS_BYTES, rts.ctx, seq=rts.seq, nbytes=CTS_BYTES, msg_id=rts.msg_id
        )

    # ----------------------------------------------------------------- send
    def isend(
        self,
        ctx: Any,
        src_rank: int,
        tag: int,
        data: Any,
        world_src: int,
        world_dst: int,
        seq: int,
        dst_phys: int,
        already_copied: bool = False,
        synchronous: bool = False,
        nbytes: Optional[int] = None,
    ) -> Generator[Any, Any, PmlSendRequest]:
        """Post a send.  Generator: charges sender CPU; returns the request.

        Payload is snapshotted here (MPI allows the caller to reuse the
        buffer only after completion, but replication needs a stable copy
        for retention regardless).  ``synchronous`` forces the rendezvous
        protocol whatever the size — MPI_Ssend semantics: completion
        implies the receive has been matched.  Callers that already sized
        the payload may pass ``nbytes`` to skip re-measuring it.
        """
        payload = data if already_copied else copy_payload(data)
        if nbytes is None:
            nbytes = nbytes_of(payload)
        overhead = self.send_cost(dst_phys)
        if overhead > 0.0:
            yield overhead
        return self.post_send(
            ctx, src_rank, tag, payload, world_src, world_dst, seq, dst_phys, nbytes, synchronous
        )

    def send_cost(self, dst_phys: int) -> float:
        """Sender CPU overhead toward *dst* (hot-path split of send_ctrl:
        protocols charge this themselves, then call :meth:`inject_ctrl`,
        avoiding a sub-generator per control frame)."""
        cost = self._send_row.get(self._node_of[dst_phys])
        if cost is None:
            cost = self._send_cost_to(dst_phys)
        return cost[0]

    def post_send(
        self,
        ctx: Any,
        src_rank: int,
        tag: int,
        payload: Any,
        world_src: int,
        world_dst: int,
        seq: int,
        dst_phys: int,
        nbytes: int,
        synchronous: bool = False,
    ) -> PmlSendRequest:
        """The one posting body of an application send (non-generator).

        The caller must have snapshotted *payload* (``copy_payload``) and
        charged :meth:`send_cost` already — the protocol fast paths do
        charge-then-post to skip one sub-generator per application send;
        :meth:`isend` is that sequence as a generator.  Nothing is counted
        or acquired before the charge, so a process crashed mid-charge
        leaves no trace here.
        """
        msg_id = self._next_msg_id()
        cost = self._send_row.get(self._node_of[dst_phys])
        if cost is None:
            cost = self._send_cost_to(dst_phys)
        req = PmlSendRequest(dst_phys, nbytes, msg_id)
        self.sends_posted += 1
        fabric = self.fabric
        if not synchronous and nbytes <= cost[1]:
            eager = fabric.acquire(
                "eager", self.proc, dst_phys, nbytes, ctx, src_rank, tag, world_src, world_dst, seq,
                nbytes, payload, msg_id,
            )  # fmt: skip
            fabric.inject(eager)
            req.done = True
        else:
            rdv = self._rdv_sends
            if rdv is None:
                rdv = self._rdv_sends = {}
            rdv[msg_id] = (req, ctx, src_rank, tag, world_src, world_dst, seq, payload)
            rts = fabric.acquire(
                "rts", self.proc, dst_phys, RTS_BYTES, ctx, src_rank, tag, world_src, world_dst, seq,
                nbytes, None, msg_id,
            )  # fmt: skip
            fabric.inject(rts)
        return req

    def inject_ctrl(self, dst_phys: int, ctrl_key: str, data: Any, nbytes: int = CTRL_BYTES) -> None:
        """Put one control frame on the wire *without* charging CPU.

        The caller must charge :meth:`send_cost` first (yield the seconds)
        — :meth:`send_ctrl` is the composed generator form.  The message
        comes from the recycling pool: control traffic (acks, decisions)
        outnumbers application frames under replication, so this path is
        allocation-free at steady state.
        """
        fabric = self.fabric
        fabric.inject(
            fabric.acquire(
                "ctrl", self.proc, dst_phys, nbytes, None, -1, -1, -1, -1, -1, nbytes, data, -1, ctrl_key
            )
        )

    def send_ctrl(self, dst_phys: int, ctrl_key: str, data: Any, nbytes: int = CTRL_BYTES) -> Generator:
        """Send a protocol-private control frame (never enters matching):
        the :meth:`send_cost` charge, then :meth:`inject_ctrl`."""
        overhead = self.send_cost(dst_phys)
        if overhead > 0.0:
            yield overhead
        self.inject_ctrl(dst_phys, ctrl_key, data, nbytes)

    # ----------------------------------------------------------------- recv
    def irecv(self, ctx: Any, source: int, tag: int, buf: Any = None) -> Generator[Any, Any, PmlRecvRequest]:
        """Post a receive; may match an unexpected message immediately."""
        return self.post_recv(PmlRecvRequest(ctx, source, tag, buf))

    def post_recv(self, req: PmlRecvRequest) -> Generator[Any, Any, PmlRecvRequest]:
        """Posting half of :meth:`irecv`, for a request the caller built
        earlier (the leader protocols park a follower's anonymous receive
        unposted and narrow ``source``/``tag`` once the decision arrives)."""
        self.recvs_posted += 1
        env = self.matching.post(req)
        if env is not None:
            yield from self._matched(req, env, from_unexpected=True)
        return req

    def cancel_recv(self, req: PmlRecvRequest) -> bool:
        ok = self.matching.cancel(req)
        if ok:
            req.cancelled = True
            req.done = True
            req.status = Status(cancelled=True)
        return ok

    # ------------------------------------------------------------- progress
    def progress_step(self) -> Generator:
        """Handle one inbound frame, or block until one arrives.

        The *only* place frames are examined — the no-asynchronous-progress
        contract.  Callers loop over this until their completion condition
        holds.
        """
        ep = self.endpoint
        if ep.inbox:
            frame = ep.inbox.popleft()
            yield from self._handle_frame(frame)
        else:
            yield ep  # block on the endpoint (allocation-free waiter)

    def drain(self) -> Generator:
        """Handle all currently-queued frames without blocking (MPI_Test)."""
        ep = self.endpoint
        while ep.inbox:
            frame = ep.inbox.popleft()
            yield from self._handle_frame(frame)

    def _handle_frame(self, env: Frame) -> Generator:
        # Ownership of the message moves from the inbox to this PML here;
        # every path below releases it, hands it on, or (torn down by a
        # crash mid-yield) strands it.
        kind = env.kind
        if kind == "svc":
            # A notice's key and value are copied out and the frame
            # released first: the handler may yield, and a crash there
            # must strand nothing.
            key = env.ctrl_key
            value = env.data
            self.fabric.release_frame(env)
            handler = self.svc_table.get(key)
            if handler is not None:
                yield from handler(self.protocol, value)
            return
        src = env.src
        if src >= 0:
            recv_row = self._recv_row
            overhead = recv_row.get(self._node_of[src])
            if overhead is None:
                overhead = self.fabric.model_for(src, self.proc).recv_overhead
                recv_row[self._node_of[src]] = overhead
            if overhead > 0.0:
                try:
                    yield overhead
                except BaseException:
                    # Crash mid-charge: this PML owns the message and the
                    # pipeline is being abandoned — account the strand.
                    self.strand(env)
                    raise
        if kind == "ctrl":
            handler = self.ctrl_table.get(env.ctrl_key)
            # A handler may be a generator function (driven here) or a
            # plain function returning None — the latter avoids a
            # generator allocation for bookkeeping-only handlers.  Once it
            # returns, the message is recycled (handlers hold a borrow —
            # see the module docstring).
            if handler is not None:
                gen = handler(self.protocol, env)
            else:  # a key only this PML registered
                handler = self.ctrl_handlers.get(env.ctrl_key)
                if handler is None:
                    raise MpiError(f"proc {self.proc}: no handler for ctrl {env.ctrl_key!r}")
                gen = handler(env)
            if gen is not None:
                try:
                    yield from gen
                except BaseException:
                    self.strand(env)  # handler abandoned mid-borrow
                    raise
            self.fabric.release_frame(env)
        elif kind == "cts":
            yield from self._handle_cts(env)
        elif kind == "data":
            yield from self._handle_rdv_data(env)
        elif kind in ("eager", "rts"):
            filt = self.incoming_filter
            if filt is not None:
                # Ownership transfers to the filter: if it withholds the
                # message (returns False) it must deliver or release it.
                deliver = yield from filt(env)
                if not deliver:
                    return
            yield from self.deliver_to_matching(env)
        else:  # pragma: no cover - defensive
            raise MpiError(f"unknown frame kind {kind!r}")

    #: public alias — the blocking fast paths in :mod:`repro.mpi.api`
    #: inline ``progress_step`` (pop one frame / block) and drive this
    handle_frame = _handle_frame

    # ---------------------------------------------------- matching plumbing
    def deliver_to_matching(self, env: Frame) -> Generator:
        """Offer an application message to MPI matching — consuming it.

        Called from frame handling, and by the replication layer when it
        releases held-back messages from its reorder buffer.  Ownership
        contract: this method consumes the message — it ends up either
        released (matched-and-completed) or parked in the unexpected
        queue, whose entries the PML releases when they match (or at
        teardown).
        """
        recv = self.matching.arrive(env)
        if recv is not None:
            # _matched inlined for the eager case (one call per matched
            # arrival); rendezvous and error paths take the method.
            if env.kind == "eager":
                try:
                    for hook in self.on_match:
                        gen = hook(recv, env)
                        if gen is not None:
                            yield from gen
                    for hook in self.on_recv_complete:
                        gen = hook(env, recv)
                        if gen is not None:
                            yield from gen
                except BaseException:
                    self.strand(env)  # pipeline abandoned mid-hook
                    raise
                # _complete_recv inlined (once per matched eager; the
                # bufferless receive is the common case).
                recv.data = env.data
                if recv.buf is not None:
                    self._copy_into_buf(recv, env)
                recv.status = Status(env.src_rank, env.tag, env.nbytes)
                recv.done = True
                self.fabric.release_frame(env)
            else:
                yield from self._matched(recv, env, from_unexpected=False)
        else:
            if env.kind == "eager":
                # Fully received at the library level even though unexpected:
                # this *is* irecvComplete for the vProtocol layer (§3.3).
                # (_fire_recv_complete inlined: once per unexpected eager.)
                # The unexpected queue now owns the message; hooks borrow.
                for hook in self.on_recv_complete:
                    gen = hook(env, None)
                    if gen is not None:
                        yield from gen
            # rts: nothing to do until a receive is posted.

    def _matched(self, recv: PmlRecvRequest, env: Frame, from_unexpected: bool) -> Generator:
        if env.kind == "eager":
            try:
                for hook in self.on_match:
                    gen = hook(recv, env)
                    if gen is not None:
                        yield from gen
                if not from_unexpected:
                    # _fire_recv_complete inlined: once per matched eager.
                    for hook in self.on_recv_complete:
                        gen = hook(env, recv)
                        if gen is not None:
                            yield from gen
            except BaseException:
                self.strand(env)  # pipeline abandoned mid-hook
                raise
            # _complete_recv inlined (the unexpected-queue match is the
            # hot path of every ANY_SOURCE-heavy workload).
            recv.data = env.data
            if recv.buf is not None:
                self._copy_into_buf(recv, env)
            recv.status = Status(env.src_rank, env.tag, env.nbytes)
            recv.done = True
            self.fabric.release_frame(env)
        elif env.kind == "rts":
            try:
                for hook in self.on_match:
                    gen = hook(recv, env)
                    if gen is not None:
                        yield from gen
            except BaseException:
                self.strand(env)  # pipeline abandoned mid-hook
                raise
            # Clear the sender to transfer the payload.  The RTS is fully
            # consumed once the CTS is built: recycle it before the CTS
            # injection can yield (a crash mid-charge then strands only
            # the un-injected CTS, which inject() accounts).
            rdv = self._rdv_recvs
            if rdv is None:
                rdv = self._rdv_recvs = {}
            rdv[(env.src, env.msg_id)] = recv
            cts = self.cts_for(env)
            self.fabric.release_frame(env)
            yield from self.inject(cts)
        else:  # pragma: no cover - defensive
            raise MpiError(f"cannot match frame kind {env.kind!r}")

    def _handle_cts(self, cts: Frame) -> Generator:
        rdv = self._rdv_sends
        entry = rdv.pop(cts.msg_id, None) if rdv is not None else None
        # The CTS is consumed by that single lookup: recycle it before the
        # DATA injection below can yield.
        self.fabric.release_frame(cts)
        if entry is None:
            return  # send was cancelled (destination died)
        req, ctx, src_rank, tag, world_src, world_dst, seq, payload = entry
        if req.cancelled:  # pragma: no cover - cancel also removes the entry
            return
        nbytes = req.nbytes
        data_msg = self.fabric.acquire(
            "data", self.proc, req.dst_phys, nbytes, ctx, src_rank, tag, world_src, world_dst, seq,
            nbytes, payload, req.msg_id,
        )  # fmt: skip
        yield from self.inject(data_msg)
        req.done = True

    def _handle_rdv_data(self, env: Frame) -> Generator:
        rdv = self._rdv_recvs
        recv = rdv.pop((env.src, env.msg_id), None) if rdv is not None else None
        if recv is None:
            self.fabric.release_frame(env)
            return  # receive was cancelled after CTS
        try:
            yield from self._fire_recv_complete(env, recv)
        except BaseException:
            self.strand(env)  # pipeline abandoned mid-hook
            raise
        self._complete_recv(recv, env)
        self.fabric.release_frame(env)

    def _fire_recv_complete(self, env: Frame, recv: Optional[PmlRecvRequest]) -> Generator:
        for hook in self.on_recv_complete:
            gen = hook(env, recv)
            if gen is not None:
                yield from gen

    def _copy_into_buf(self, recv: PmlRecvRequest, env: Frame) -> None:
        """MPI_Recv-into-buffer semantics for the posted-buffer case."""
        if isinstance(recv.buf, np.ndarray) and isinstance(env.data, np.ndarray):
            if env.data.nbytes > recv.buf.nbytes:
                raise TruncationError(
                    f"proc {self.proc}: message of {env.data.nbytes} B truncates "
                    f"buffer of {recv.buf.nbytes} B (ctx={env.ctx}, tag={env.tag})"
                )
            flat = recv.buf.reshape(-1)
            src = env.data.reshape(-1)
            flat[: src.size] = src

    def _complete_recv(self, recv: PmlRecvRequest, env: Frame) -> None:
        recv.data = env.data
        if recv.buf is not None:
            self._copy_into_buf(recv, env)
        recv.status = Status(env.src_rank, env.tag, env.nbytes)
        recv.done = True

    def cancel_sends_to(self, dst_phys: int) -> int:
        """Cancel outstanding rendezvous sends toward a dead process."""
        cancelled = 0
        rdv = self._rdv_sends
        if rdv is None:
            return 0
        for msg_id, (req, *_retained) in list(rdv.items()):
            if req.dst_phys == dst_phys and not req.done:
                req.cancelled = True
                req.done = True
                del rdv[msg_id]
                cancelled += 1
        return cancelled

    # -------------------------------------------------------- observability
    def stats(self) -> dict:
        """PML-level counters: posting totals and matching."""
        return {
            "sends_posted": self.sends_posted,
            "recvs_posted": self.recvs_posted,
            **self.matching.stats(),
        }

    def reap(self) -> int:
        """End-of-run teardown: release everything still parked here.

        Frames sitting in the inbox (e.g. a mirror duplicate that arrived
        after every application finished) and messages parked in the
        unexpected queue are well-defined leftovers of a completed run —
        releasing them is what lets the harness assert that every acquire
        was matched by a release.  Rendezvous retention (plain fields) is
        dropped too, though on a crash-free run it is empty (an incomplete
        send implies a blocked process, which the deadlock detector
        reports first).  Returns the number of envelopes reaped — every
        non-svc message plus each retained send (strand attribution for
        retired stacks).
        """
        reaped = 0
        release = self.fabric.release_frame
        inbox = self.endpoint.inbox
        while inbox:
            frame = inbox.popleft()
            reaped += frame.kind != "svc"
            release(frame)
        for env in self.matching.drain_unexpected():
            release(env)
            reaped += 1
        rdv = self._rdv_sends
        if rdv is not None:
            reaped += len(rdv)
            rdv.clear()
        return reaped

    def _unlink(self) -> None:
        """End of run: drop the protocol and its bound hooks, which hold
        this PML in a cycle."""
        self.protocol = None
        self.ctrl_handlers.clear()
        self.incoming_filter = None
        self.on_match.clear()
        self.on_recv_complete.clear()
