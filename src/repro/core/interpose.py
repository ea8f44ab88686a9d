"""The vProtocol-style interposition contract.

Open MPI's vProtocol framework lets a fault-tolerance layer wrap the PML
without reimplementing it (§4.1): it adds pre/post-treatment around
``pml_send`` and subscribes to the ``pml_match`` / ``pml_recv_complete``
events.  :class:`BaseProtocol` is that surface here.  The API facade calls
``app_isend`` / ``app_irecv``; protocols return :class:`SendHandle` /
:class:`RecvHandle` objects whose ``done`` predicate encodes any extra
completion conditions (SDR-MPI: "all r-1 acks collected").  Handles are
passive (:mod:`repro.mpi.handles`): the wait loops only read them, so a
protocol that must act later — post a follower's deferred receive, resend
after a failover — does so from its own ctrl handler or hook, never from
a wait loop.

:class:`NativeProtocol` is the identity interposition — unmodified Open
MPI — used for every "Native" column in the paper's tables.

Message ownership across this surface
-------------------------------------
Every message a protocol sees through the interposition surface is one
pooled :class:`~repro.network.fabric.Frame`, envelope fields included
(see :mod:`repro.mpi.pml`).  The contract, per entry point:

* ``on_match(recv, env)`` / ``on_recv_complete(env, recv)`` / a
  ``CTRL_HANDLERS`` method — *env* is a **borrow**: valid while the
  handler runs (through every resumption, for generator handlers), recycled
  the moment it returns.  There is no refcount and no escape hatch:
  handlers copy out the fields they need.
* ``incoming_filter(env)`` — ownership **transfers** to the filter when it
  returns False: the filter must hand the message to
  ``pml.deliver_to_matching`` (now or later — reorder buffers hold
  ownership while a message is parked) or release it via
  ``pml.fabric.release_frame`` (duplicate drops, a second copy of a parked
  seq included).  A filter that *owns* a message across a ``yield`` must
  additionally route it to ``pml.strand`` if the generator is torn down
  mid-suspension (a fail-stop crash of the owning process) — see
  :meth:`repro.core.replicated.ReplicatedBase._filter_incoming` for the
  pattern.  A filter that loses one fails the end-of-run balance
  (``acquired == released + stranded``), which counts it unaccounted.
* ``pml.deliver_to_matching(env)`` — consumes the message: it is released
  after completion hooks, or parked in the unexpected queue (which the PML
  owns and reaps).

Payload references obtained inside the window (``env.data``,
``recv.data``) follow the copy-on-write snapshot discipline and stay valid
after recycling — only the frame *shell* is recycled.  Protocol-side
retention (SDR's resend store, redMPI's vote state) therefore keeps
payloads, digests or copied fields, never raw messages.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, TYPE_CHECKING

from repro.core.io import NativeIo, VirtualFileSystem
from repro.mpi.datatypes import copy_payload, nbytes_of
from repro.mpi.handles import RecvHandle, SendHandle

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.mpi.pml import Pml

__all__ = [
    "SendHandle",
    "RecvHandle",
    "BaseProtocol",
    "NativeProtocol",
]


class BaseProtocol:
    """Common state: per-destination application-message sequence numbers.

    ``seq`` is the per (my world rank → destination world rank) counter of
    application messages in program order.  Send-determinism (Definition 1)
    guarantees replicas assign identical numbers to corresponding messages —
    the invariant every replication protocol here keys on.
    """

    name = "base"
    #: a logical send reaches replicas of the receiver in *other* replica
    #: sets too, so the sets' senders meet on one downlink at one instant —
    #: a static hazard for :mod:`repro.sim.shard` (``classify_hazards``)
    replica_fanout = False

    #: protocols are one-per-physical-process; slots keep the per-instance
    #: footprint to the mutable residue (the read-only half is the job's
    #: ``rmap`` and ``cfg``, which every replicated stack references)
    __slots__ = ("pml", "world_rank", "_send_seq", "app_sends", "app_recvs")

    #: protocol-private frame handlers: ctrl key -> method name.  A job
    #: resolves the names once for all its stacks into ``Pml.ctrl_table``
    #: (no bound method per process); the PML calls ``handler(protocol, env)``.
    CTRL_HANDLERS: Dict[str, str] = {}
    #: the membership service's notices: svc key -> method name
    #: (``Pml.svc_table``, called as ``handler(protocol, payload)``)
    SVC_HANDLERS: Dict[str, str] = {}

    def __init__(self, pml: Pml, world_rank: int) -> None:
        self.pml = pml
        self.world_rank = world_rank
        self._send_seq: Dict[int, int] = {}
        #: messages sent/received at the application level (metrics)
        self.app_sends = 0
        self.app_recvs = 0

    def next_seq(self, world_dst: int) -> int:
        seq = self._send_seq.get(world_dst, 0)
        self._send_seq[world_dst] = seq + 1
        return seq

    def file_io(self, vfs: VirtualFileSystem) -> NativeIo:
        """This process's file-I/O adapter (``MpiProcess.io`` builds it on
        first use)."""
        return NativeIo(vfs, self.world_rank)

    # ------------------------------------------------------------- interface
    def app_isend(
        self, ctx: Any, src_rank: int, tag: int, data: Any, world_dst: int,
        synchronous: bool = False,
    ) -> Generator[Any, Any, SendHandle]:  # pragma: no cover - abstract
        raise NotImplementedError

    def app_irecv(
        self, ctx: Any, source: int, tag: int, buf: Any = None
    ) -> Generator[Any, Any, RecvHandle]:  # pragma: no cover - abstract
        raise NotImplementedError

    def stats(self) -> dict:
        return {
            "app_sends": self.app_sends,
            "app_recvs": self.app_recvs,
            **self.pml.stats(),
        }


class NativeProtocol(BaseProtocol):
    """Identity interposition: world rank == physical process."""

    name = "native"

    __slots__ = ()

    def app_isend(self, ctx, src_rank, tag, data, world_dst, synchronous=False) -> Generator:
        self.app_sends += 1
        seq = self.next_seq(world_dst)
        # charge-then-post split of pml.isend (see Pml.post_send)
        pml = self.pml
        payload = copy_payload(data)
        nbytes = nbytes_of(payload)
        overhead = pml.send_cost(world_dst)
        if overhead > 0.0:
            yield overhead
        req = pml.post_send(
            ctx, src_rank, tag, payload, self.world_rank, world_dst, seq, world_dst, nbytes, synchronous
        )
        return SendHandle([req], world_dst, seq, nbytes=nbytes)

    def app_irecv(self, ctx, source, tag, buf=None) -> Generator:
        self.app_recvs += 1
        req = yield from self.pml.irecv(ctx=ctx, source=source, tag=tag, buf=buf)
        return RecvHandle(req)
