"""The user-facing MPI binding (the "OMPI layer").

Applications receive an :class:`MpiProcess` facade and write ordinary MPI
programs as generators::

    def app(mpi):
        if mpi.rank == 0:
            yield from mpi.send(payload, dest=1, tag=7)
        elif mpi.rank == 1:
            data, st = yield from mpi.recv(source=mpi.ANY_SOURCE, tag=7)
        x = yield from mpi.allreduce(local, op="sum")
        yield from mpi.compute(0.5e-3)   # model 0.5 ms of local work

Every communication call is forwarded through the installed *protocol*
(:mod:`repro.core.interpose`): native passthrough, SDR-MPI, or one of the
baselines.  The facade itself is protocol-agnostic — this is the paper's
"implement replication inside the library" layering (Fig. 5).
"""

from __future__ import annotations

from typing import Any, Generator, List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.mpi.handles import RecvHandle, SendHandle
from repro.mpi.collectives import algorithms as coll
from repro.mpi.comm import WORLD_CTX, Communicator
from repro.mpi.errors import MpiError
from repro.mpi.pml import Pml
from repro.mpi.status import ANY_SOURCE, ANY_TAG, Status
from repro.sim.kernel import Simulator
from repro.sim.sync import Timeout  # noqa: F401 - re-exported for API users

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.interpose import BaseProtocol

__all__ = ["MpiProcess"]


class MpiProcess:
    """Per-physical-process MPI facade bound to a protocol and a world.

    A ``__slots__`` class: jobs build one per physical process, so the
    per-instance ``__dict__`` is pure footprint at scale.  ``world_shared``
    is the flyweight hand-off — the job builds one
    :func:`repro.mpi.comm.shared_world` pair and every process's world
    communicator references it instead of materializing its own
    O(world_size) member tuple and rank map (the seed engine's dominant
    construction cost at 4096+ ranks).
    """

    __slots__ = (
        "sim",
        "pml",
        "protocol",
        "world_rank",
        "world",
        "app_state",
        "noise",
        "vfs",
        "_io",
    )

    ANY_SOURCE = ANY_SOURCE
    ANY_TAG = ANY_TAG

    def __init__(
        self,
        sim: Simulator,
        pml: Pml,
        protocol: "BaseProtocol",
        world_rank: int,
        world_shared: Tuple[Tuple[int, ...], Any],
    ) -> None:
        self.sim = sim
        self.pml = pml
        self.protocol = protocol
        self.world_rank = world_rank
        members, rank_map = world_shared
        self.world: Communicator = Communicator(self, WORLD_CTX, members, rank_map=rank_map)
        #: set by workloads that support §3.4 recovery (fork/restore)
        self.app_state = None
        #: optional (rng, sigma) pair modelling OS noise on compute phases;
        #: installed by the harness from Cluster.compute_noise
        self.noise = None
        #: the job's file system (installed by the harness) for ``io``
        self.vfs = None
        self._io = None

    # ------------------------------------------------------------ shorthand
    @property
    def io(self) -> Any:
        """File-I/O adapter, built by the protocol on first use: most
        applications never touch one."""
        if self._io is None and self.vfs is not None:
            self._io = self.protocol.file_io(self.vfs)
        return self._io

    @io.setter
    def io(self, adapter: Any) -> None:
        self._io = adapter

    @property
    def rank(self) -> int:
        return self.world.rank

    @property
    def size(self) -> int:
        return self.world.size

    @property
    def proc(self) -> int:
        """Physical process id."""
        return self.pml.proc

    def wtime(self) -> float:
        return self.sim.now

    def compute(self, seconds: float) -> Generator:
        """Model *seconds* of pure local computation (MPI makes no progress).

        If the cluster models OS noise, the phase is stretched by a
        lognormal factor drawn from this process's noise stream.
        """
        if seconds < 0:
            raise ValueError("compute time cannot be negative")
        if seconds > 0 and self.noise is not None:
            rng, sigma = self.noise
            seconds *= float(rng.lognormal(mean=0.0, sigma=sigma))
        if seconds > 0:
            yield seconds

    def register_state(self, state: Any) -> None:
        """Register a snapshot/restore-able state object (recovery support)."""
        self.app_state = state

    def fwrite(self, path: str, data: Any) -> Generator:
        """Write to the simulated parallel file system.

        Under replication only the rank's leader replica physically writes
        (Böhm & Engelmann's redundant-execution I/O, the paper's planned
        integration — see :mod:`repro.core.io`).
        """
        if self.io is None:
            raise MpiError("file I/O is not wired for this job")
        yield from self.io.write(path, data)

    def fread(self, path: str) -> Generator:
        """Read the append-log of *path* from the simulated file system."""
        if self.io is None:
            raise MpiError("file I/O is not wired for this job")
        return (yield from self.io.read(path))

    def recovery_point(self) -> Generator:
        """Declare a quiescent point where a pending respawn may fork (§3.4).

        A no-op unless the harness installed a recovery hook and this
        process is the substitute of a rank with a pending respawn.
        """
        hook = getattr(self.protocol, "recovery_point", None)
        if hook is not None:
            yield from hook()

    # --------------------------------------------------------- nonblocking
    def isend_on(
        self, comm: Communicator, ctx: Any, dest: int, tag: int, data: Any, synchronous: bool = False
    ) -> Generator[Any, Any, "SendHandle"]:
        """Protocol-routed send on an explicit matching context."""
        world_dst = comm.world_of(dest)
        handle = yield from self.protocol.app_isend(
            ctx=ctx, src_rank=comm.rank, tag=tag, data=data, world_dst=world_dst, synchronous=synchronous
        )
        return handle

    def irecv_on(
        self, comm: Communicator, ctx: Any, source: int, tag: int, buf: Any = None
    ) -> Generator[Any, Any, "RecvHandle"]:
        """Protocol-routed receive on an explicit matching context."""
        if source != ANY_SOURCE and not (0 <= source < comm.size):
            raise MpiError(f"receive source {source} outside communicator of size {comm.size}")
        handle = yield from self.protocol.app_irecv(ctx=ctx, source=source, tag=tag, buf=buf)
        return handle

    # The three below hand back the ``*_on`` generator itself (no
    # pass-through frame on every wake of the caller's ``yield from``).
    def isend(self, data: Any, dest: int, tag: int = 0, comm: Optional[Communicator] = None) -> Generator:
        comm = comm or self.world
        return self.isend_on(comm, comm.ctx_p2p, dest, tag, data)

    def issend(self, data: Any, dest: int, tag: int = 0, comm: Optional[Communicator] = None) -> Generator:
        """MPI_Issend: completion additionally implies the receive matched."""
        comm = comm or self.world
        return self.isend_on(comm, comm.ctx_p2p, dest, tag, data, synchronous=True)

    def irecv(
        self,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        comm: Optional[Communicator] = None,
        buf: Any = None,
    ) -> Generator:
        comm = comm or self.world
        return self.irecv_on(comm, comm.ctx_p2p, source, tag, buf)

    # ------------------------------------------------------------ completion
    # Handles are passive (see :mod:`repro.mpi.handles`): every loop below
    # polls ``pml_req.done`` for a receive, ``needs_ack`` + ``pml_reqs`` for
    # a send, and otherwise only progresses the PML — pop one inbound frame
    # or block on the endpoint (:meth:`~repro.mpi.pml.Pml.progress_step`
    # inlined).  Frames are handled nowhere else: the no-asynchronous-
    # progress contract §3.3's deadlock-avoidance argument relies on.
    def wait_handles(self, handles: Sequence[Any]) -> Generator[Any, Any, List[Optional[Status]]]:
        """Progress until every handle completes (MPI_Waitall).

        The underlying PML receive requests are collected once up front and
        each one is **dropped from the pending list the moment it
        completes** — later progress iterations re-scan only what is still
        outstanding.  Halo exchanges post 2k handles and complete them one
        frame at a time, so re-scanning every handle on every frame would
        be quadratic in the fan-out.
        """
        rpend: List[Any] = []  # PML receive requests still incomplete
        spend: List[Any] = []  # send handles still incomplete
        for h in handles:
            if type(h) is RecvHandle:
                req = h.pml_req
                if not req.done:
                    rpend.append(req)
            else:
                # Kept whole (not flattened into its pml_reqs): a failover
                # may append a resend request mid-wait, and the ack set
                # shrinks as acks land — both are re-read through the
                # handle each iteration.
                spend.append(h)
        pml = self.pml
        ep = pml.endpoint
        while True:
            if rpend:
                # Compact in place: completed requests drop out and are
                # never polled again.
                n = 0
                for r in rpend:
                    if not r.done:
                        rpend[n] = r
                        n += 1
                del rpend[n:]
            if spend:
                n = 0
                for h in spend:
                    if h.needs_ack:
                        done = False
                    else:
                        reqs = h.pml_reqs
                        done = reqs[0].done if len(reqs) == 1 else all(r.done for r in reqs)
                    if not done:
                        spend[n] = h
                        n += 1
                del spend[n:]
            if not rpend and not spend:
                return [h.status for h in handles]
            if ep.inbox:
                yield from pml.handle_frame(ep.inbox.popleft())
            else:
                yield ep  # block on the endpoint (allocation-free waiter)

    #: MPI_Waitall *is* the loop above: an alias, not a wrapper frame
    waitall = wait_handles

    def wait(self, handle: Any) -> Generator[Any, Any, Optional[Status]]:
        """MPI_Wait: single-handle form of :meth:`wait_handles`."""
        pml = self.pml
        ep = pml.endpoint
        while not handle.done:
            if ep.inbox:
                yield from pml.handle_frame(ep.inbox.popleft())
            else:
                yield ep  # block on the endpoint (allocation-free waiter)
        return handle.status

    @staticmethod
    def _polls(handles: Sequence[Any]) -> List[Tuple[bool, Any]]:
        """Per-handle poll plan ``(is_send, obj)``: receives poll their PML
        request's ``done`` slot directly (no descriptor dispatch), sends
        get the :class:`SendHandle` completion predicate inlined."""
        return [(False, h.pml_req) if type(h) is RecvHandle else (True, h) for h in handles]

    def waitsome(self, handles: Sequence[Any]) -> Generator[Any, Any, List[Tuple[int, Optional[Status]]]]:
        """Progress until at least one handle completes; returns every
        completed (index, status) pair (MPI_Waitsome)."""
        if not handles:
            raise MpiError("waitsome requires at least one handle")
        polls = self._polls(handles)
        pml = self.pml
        ep = pml.endpoint
        while True:
            done: List[Tuple[int, Optional[Status]]] = []
            for i, (is_send, obj) in enumerate(polls):
                if is_send:
                    if obj.needs_ack:
                        continue
                    reqs = obj.pml_reqs
                    if reqs[0].done if len(reqs) == 1 else all(r.done for r in reqs):
                        done.append((i, obj.status))
                elif obj.done:
                    done.append((i, obj.status))
            if done:
                return done
            if ep.inbox:
                yield from pml.handle_frame(ep.inbox.popleft())
            else:
                yield ep  # block on the endpoint (allocation-free waiter)

    def waitany(self, handles: Sequence[Any]) -> Generator[Any, Any, Tuple[int, Optional[Status]]]:
        """Progress until *some* handle completes; returns (index, status).

        The winning index depends on message timing — a non-deterministic
        outcome that send-deterministic applications may observe internally
        without externally visible divergence (§2.2).  The lowest completed
        index wins each scan.
        """
        if not handles:
            raise MpiError("waitany requires at least one handle")
        polls = self._polls(handles)
        pml = self.pml
        ep = pml.endpoint
        while True:
            for i, (is_send, obj) in enumerate(polls):
                if is_send:
                    if obj.needs_ack:
                        continue
                    reqs = obj.pml_reqs
                    if reqs[0].done if len(reqs) == 1 else all(r.done for r in reqs):
                        return i, obj.status
                elif obj.done:
                    return i, obj.status
            if ep.inbox:
                yield from pml.handle_frame(ep.inbox.popleft())
            else:
                yield ep  # block on the endpoint (allocation-free waiter)

    def test(self, handle: Any) -> Generator[Any, Any, bool]:
        """Nonblocking completion check (MPI_Test): drain, never block."""
        yield from self.pml.drain()
        return handle.done

    def testall(self, handles: Sequence[Any]) -> Generator[Any, Any, bool]:
        yield from self.pml.drain()
        return all(h.done for h in handles)

    # --------------------------------------------------------------- blocking
    # One fused generator per blocking call, on an explicit matching
    # context: the posting preamble of ``isend_on``/``irecv_on`` and the
    # wait loop in one frame.  Blocking point-to-point and every collective
    # schedule (on ``comm.ctx_coll``) resume through these, and each layer
    # of ``yield from`` delegation would cost a frame traversal per resumed
    # event.  Semantics are those of ``isend_on``/``irecv_on`` +
    # ``wait_handles``; the ``SendHandle.done`` predicate is inlined (a
    # property call per progress iteration is measurable).
    def send_on(self, comm: Communicator, ctx: Any, dest: int, tag: int, data: Any) -> Generator:
        """Blocking send on an explicit matching context."""
        world_dst = comm.world_of(dest)
        handle = yield from self.protocol.app_isend(
            ctx=ctx, src_rank=comm.rank, tag=tag, data=data, world_dst=world_dst, synchronous=False
        )
        pml = self.pml
        ep = pml.endpoint
        while True:
            if not handle.needs_ack:
                reqs = handle.pml_reqs
                if reqs[0].done if len(reqs) == 1 else all(r.done for r in reqs):
                    return
            if ep.inbox:
                yield from pml.handle_frame(ep.inbox.popleft())
            else:
                yield ep  # block on the endpoint (allocation-free waiter)

    def recv_on(
        self, comm: Communicator, ctx: Any, source: int, tag: int, buf: Any = None
    ) -> Generator[Any, Any, Tuple[Any, Status]]:
        """Blocking receive on an explicit matching context."""
        handle = yield from self.protocol.app_irecv(ctx=ctx, source=source, tag=tag, buf=buf)
        pml = self.pml
        ep = pml.endpoint
        req = handle.pml_req  # never changes: poll it, not the handle
        while True:
            if req.done:
                return req.data, req.status
            if ep.inbox:
                yield from pml.handle_frame(ep.inbox.popleft())
            else:
                yield ep  # block on the endpoint (allocation-free waiter)

    def sendrecv_on(
        self, comm: Communicator, ctx: Any, dest: int, sendtag: int, senddata: Any, source: int, recvtag: int
    ) -> Generator[Any, Any, Tuple[Any, Status]]:
        """Fused MPI_Sendrecv on an explicit matching context: post the
        receive, then the send, and drive both to completion (the order
        and progress step of ``wait_handles([send, recv])``)."""
        protocol = self.protocol
        rhandle = yield from protocol.app_irecv(ctx=ctx, source=source, tag=recvtag, buf=None)
        world_dst = comm.world_of(dest)
        shandle = yield from protocol.app_isend(
            ctx=ctx, src_rank=comm.rank, tag=sendtag, data=senddata, world_dst=world_dst, synchronous=False
        )
        pml = self.pml
        ep = pml.endpoint
        r_req = rhandle.pml_req
        while True:
            if r_req.done and not shandle.needs_ack:
                reqs = shandle.pml_reqs
                if reqs[0].done if len(reqs) == 1 else all(r.done for r in reqs):
                    return r_req.data, r_req.status
            if ep.inbox:
                yield from pml.handle_frame(ep.inbox.popleft())
            else:
                yield ep  # block on the endpoint (allocation-free waiter)

    # The three below validate, then hand back the ``*_on`` generator
    # itself (no pass-through frame, as for ``isend``/``irecv``).
    def send(self, data: Any, dest: int, tag: int = 0, comm: Optional[Communicator] = None) -> Generator:
        """Blocking send."""
        comm = comm or self.world
        return self.send_on(comm, comm.ctx_p2p, dest, tag, data)

    def ssend(self, data: Any, dest: int, tag: int = 0, comm: Optional[Communicator] = None) -> Generator:
        """MPI_Ssend: returns only after the matching receive was posted."""
        handle = yield from self.issend(data, dest, tag, comm)
        yield from self.wait(handle)

    def recv(
        self,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        comm: Optional[Communicator] = None,
        buf: Any = None,
    ) -> Generator[Any, Any, Tuple[Any, Status]]:
        """Blocking receive."""
        comm = comm or self.world
        if source != ANY_SOURCE and not (0 <= source < comm.size):
            raise MpiError(f"receive source {source} outside communicator of size {comm.size}")
        return self.recv_on(comm, comm.ctx_p2p, source, tag, buf)

    def sendrecv(
        self,
        senddata: Any,
        dest: int,
        source: int,
        sendtag: int = 0,
        recvtag: int = ANY_TAG,
        comm: Optional[Communicator] = None,
    ) -> Generator[Any, Any, Tuple[Any, Status]]:
        """Fused MPI_Sendrecv (halo exchanges: the dominant call shape of
        the paper-scale workloads)."""
        comm = comm or self.world
        if source != ANY_SOURCE and not (0 <= source < comm.size):
            raise MpiError(f"receive source {source} outside communicator of size {comm.size}")
        return self.sendrecv_on(comm, comm.ctx_p2p, dest, sendtag, senddata, source, recvtag)

    # ----------------------------------------------------------------- probe
    def iprobe(
        self, source: int = ANY_SOURCE, tag: int = ANY_TAG, comm: Optional[Communicator] = None
    ) -> Generator[Any, Any, Optional[Status]]:
        comm = comm or self.world
        yield from self.pml.drain()
        env = self.pml.matching.probe(comm.ctx_p2p, source, tag)
        if env is None:
            return None
        return Status(source=env.src_rank, tag=env.tag, nbytes=env.nbytes)

    def probe(
        self, source: int = ANY_SOURCE, tag: int = ANY_TAG, comm: Optional[Communicator] = None
    ) -> Generator[Any, Any, Status]:
        comm = comm or self.world
        while True:
            st = yield from self.iprobe(source, tag, comm)
            if st is not None:
                return st
            yield from self.pml.progress_step()

    # ------------------------------------------------------------ collectives
    # These (and the communicator constructors below) hand back the
    # algorithm's own generator: callers ``yield from`` it directly, so a
    # collective wake does not traverse a pass-through frame here.
    def barrier(self, comm: Optional[Communicator] = None) -> Generator:
        return coll.barrier(self, comm or self.world)

    def bcast(self, data: Any, root: int = 0, comm: Optional[Communicator] = None) -> Generator:
        return coll.bcast(self, comm or self.world, data, root)

    def reduce(
        self, data: Any, op: str = "sum", root: int = 0, comm: Optional[Communicator] = None
    ) -> Generator:
        return coll.reduce(self, comm or self.world, data, op, root)

    def allreduce(self, data: Any, op: str = "sum", comm: Optional[Communicator] = None) -> Generator:
        return coll.allreduce(self, comm or self.world, data, op)

    def gather(self, data: Any, root: int = 0, comm: Optional[Communicator] = None) -> Generator:
        return coll.gather(self, comm or self.world, data, root)

    def scatter(
        self, chunks: Optional[List[Any]], root: int = 0, comm: Optional[Communicator] = None
    ) -> Generator:
        return coll.scatter(self, comm or self.world, chunks, root)

    def allgather(self, data: Any, comm: Optional[Communicator] = None) -> Generator:
        return coll.allgather(self, comm or self.world, data)

    def alltoall(self, chunks: List[Any], comm: Optional[Communicator] = None) -> Generator:
        return coll.alltoall(self, comm or self.world, chunks)

    def reduce_scatter(
        self, chunks: List[Any], op: str = "sum", comm: Optional[Communicator] = None
    ) -> Generator:
        return coll.reduce_scatter_block(self, comm or self.world, chunks, op)

    def scan(self, data: Any, op: str = "sum", comm: Optional[Communicator] = None) -> Generator:
        return coll.scan(self, comm or self.world, data, op)

    # ---------------------------------------------------------- communicators
    def comm_dup(self, comm: Optional[Communicator] = None) -> Generator:
        return (comm or self.world).dup()

    def comm_split(self, color: int, key: int = 0, comm: Optional[Communicator] = None) -> Generator:
        return (comm or self.world).split(color, key)

    def comm_create(self, group, comm: Optional[Communicator] = None) -> Generator:
        return (comm or self.world).create(group)
