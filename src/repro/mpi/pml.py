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
* ``incoming_filter`` lets a protocol intercept application envelopes before
  matching (SDR-MPI uses this for duplicate suppression and per-channel
  in-order release);
* ``ctrl_handlers`` dispatch protocol-private frames (acks, leader
  decisions, hashes, recovery notices) that never touch MPI matching.

Cost accounting: every injected frame charges the sender
``model.send_overhead`` of CPU busy time; every handled frame charges the
receiver ``model.recv_overhead``.  Wire serialization and propagation are
charged by the fabric.  There is **no asynchronous progress**: frames are
handled only inside :meth:`Pml.progress_step`, which runs only while the
owning process executes an MPI call.

Envelope ownership contract
---------------------------
Every :class:`Envelope` — all five kinds — recycles through a per-PML
arena and has **exactly one owner** at every point in its lifetime:

* the sending PML allocates from its arena (:meth:`Pml.acquire_env`) and
  ownership travels with the frame to the receiving PML;
* on the receive side, ownership moves through a fixed pipeline —
  ``incoming_filter`` (which may park the envelope, e.g. in a reorder
  buffer) → :meth:`Pml.deliver_to_matching` (which *consumes* it: either
  the unexpected queue holds it, or matching completes and the PML
  releases it) — and the PML returns the envelope to the arena the moment
  the last handler has run (:meth:`Pml.release_env`);
* hooks (``on_match``, ``on_recv_complete``) and ``ctrl_handlers``
  receive the envelope as a **borrow**: it is valid for the duration of
  the handler invocation (including every resumption of a generator
  handler until it finishes) and must not be retained past it.  A
  protocol that needs the message afterwards takes the explicit escape
  hatch: :meth:`Envelope.retain` keeps the envelope out of the arena
  until a matching :meth:`Pml.release_env`, or :meth:`Envelope.copy`
  snapshots it into an arena-independent, read-only
  :class:`MessageView`.

Payloads are *not* part of the recycling: ``env.data`` refers to the
copy-on-write snapshot machinery of :mod:`repro.mpi.datatypes`, and
``Pml._complete_recv`` hands that reference to the receive request before
the shell is recycled.  ``tests/test_pooling_equivalence.py`` pins the
arena to the fingerprints plain allocation left behind (its last run,
recorded in ``tests/data/spec_fingerprints.jsonl``), and the harness
asserts the arenas balance — every acquire matched by a release or an
accounted strand — at the end of every run, crashes included.
Fail-stop teardown is what makes crashy runs provable:
every receive-pipeline span that owns an envelope across a yield carries a
guard routing the abandoned reference to :meth:`Pml.strand_env`, and the
fabric counts the frames (and their envelopes) dropped at its own fail-stop
sites (see :mod:`repro.network.fabric`).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

import numpy as np

from repro.mpi.datatypes import PayloadInterner, copy_payload, nbytes_of
from repro.mpi.errors import MpiError, TruncationError
from repro.mpi.matching import MatchEngine
from repro.mpi.status import ANY_SOURCE, Status
from repro.network.fabric import Fabric, Frame
from repro.sim.kernel import Simulator

__all__ = [
    "Envelope",
    "MessageView",
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


class Envelope:
    """Everything the PML knows about a message.

    ``src_rank`` is the sender's rank *within the matching context* (what
    MPI matching sees); ``world_src``/``world_dst`` are logical world ranks
    (what the replication protocol keys on); ``seq`` is the per
    (world_src → world_dst) application-message sequence number, identical
    across replicas by send-determinism.

    A ``__slots__`` class rather than a dataclass: one envelope per frame
    makes its construction part of the per-message critical path.

    Instances delivered by the PML are arena-owned **borrows** (see the
    module docstring): handlers read them freely while they run, and use
    :meth:`retain`/:meth:`copy` to hold a message past the handler.
    """

    __slots__ = (
        "kind",
        "ctx",
        "src_rank",
        "tag",
        "world_src",
        "world_dst",
        "seq",
        "nbytes",
        "data",
        "src_phys",
        "dst_phys",
        "msg_id",
        "ctrl_key",
        "_refs",
    )

    def __init__(
        self,
        kind: str,  # 'eager' | 'rts' | 'cts' | 'data' | 'ctrl'
        ctx: Any,
        src_rank: int,
        tag: int,
        world_src: int,
        world_dst: int,
        seq: int,
        nbytes: int,
        data: Any,
        src_phys: int,
        dst_phys: int,
        msg_id: int = -1,
        ctrl_key: str = "",
    ) -> None:
        self.kind = kind
        self.ctx = ctx
        self.src_rank = src_rank
        self.tag = tag
        self.world_src = world_src
        self.world_dst = world_dst
        self.seq = seq
        self.nbytes = nbytes
        self.data = data
        self.src_phys = src_phys
        self.dst_phys = dst_phys
        self.msg_id = msg_id
        self.ctrl_key = ctrl_key
        self._refs = 1

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Envelope(kind={self.kind!r}, ctx={self.ctx!r}, src_rank={self.src_rank}, "
            f"tag={self.tag}, world_src={self.world_src}, world_dst={self.world_dst}, "
            f"seq={self.seq}, nbytes={self.nbytes}, src_phys={self.src_phys}, "
            f"dst_phys={self.dst_phys}, msg_id={self.msg_id}, ctrl_key={self.ctrl_key!r})"
        )

    def retain(self) -> "Envelope":
        """Escape hatch: keep this envelope alive past the borrow window.

        Each ``retain()`` must be balanced by one :meth:`Pml.release_env`
        — the envelope returns to the arena only when every holder has
        released it.  Prefer :meth:`copy` unless you need the live object.
        """
        self._refs += 1
        return self

    def copy(self) -> "MessageView":
        """Arena-independent, read-only snapshot of this message.

        The safe way for a protocol to hold a message for later comparison
        (redMPI-style vote checks, diagnostics): the view shares the
        immutable payload snapshot but is detached from the recycling
        arena, so it stays valid forever.
        """
        return MessageView(self)


class MessageView:
    """Immutable snapshot of a delivered message.

    Carries the matching/replication-relevant fields of an
    :class:`Envelope` (ctx/src/tag/seq/payload and the physical
    addressing), detached from the recycling arena: a view taken inside a
    hook stays valid after the envelope shell has been recycled.  The
    payload reference follows the copy-on-write snapshot discipline of
    :mod:`repro.mpi.datatypes` (immutable, shared).  Attribute assignment
    raises — a view is a value, not a message in flight.
    """

    __slots__ = (
        "kind",
        "ctx",
        "src_rank",
        "tag",
        "world_src",
        "world_dst",
        "seq",
        "nbytes",
        "data",
        "src_phys",
        "dst_phys",
        "msg_id",
        "ctrl_key",
    )

    def __init__(self, env: Envelope) -> None:
        setattr_ = object.__setattr__
        for field in self.__slots__:
            setattr_(self, field, getattr(env, field))

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"MessageView is read-only (tried to set {name!r})")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"MessageView(kind={self.kind!r}, ctx={self.ctx!r}, src_rank={self.src_rank}, "
            f"tag={self.tag}, seq={self.seq}, nbytes={self.nbytes})"
        )


class PmlSendRequest:
    """Library-level send request: done at ``isendComplete``.

    Holds no envelope reference: under the ownership contract the eager
    envelope belongs to the wire (and then to the receiving PML) the
    moment it is injected, and rendezvous retention lives in the PML's
    ``_rdv_sends`` table until the CTS arrives.
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

    ``lib_complete`` mirrors the paper's ``irecvComplete``: payload fully in
    the library.  ``done`` is application-level completion (payload copied
    into the user buffer, status filled).  ``matched`` exposes the matched
    envelope **only during the match/complete hook window** — it is cleared
    when the PML recycles the envelope (take a :meth:`Envelope.copy` in an
    ``on_match`` hook to keep it).
    """

    __slots__ = (
        "ctx",
        "source",
        "tag",
        "buf",
        "done",
        "lib_complete",
        "matched",
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
        self.lib_complete = False
        self.matched: Optional[Envelope] = None
        self.data: Any = None
        self.status: Optional[Status] = None
        self.cancelled = False


HookFn = Callable[..., Optional[Generator]]


class _HookList(list):
    """Hook registry for one interposition event (``on_match`` /
    ``on_recv_complete``).

    A plain list everywhere it matters (the firing loops iterate it
    directly), except that :meth:`append` — the only registration path the
    protocols use — wraps the hook in the retain-accounting guard
    (:func:`repro.core.interpose.guard_hook`) when the runtime ownership
    guard is enabled, mirroring how ``incoming_filter`` wraps at
    assignment time.
    """

    __slots__ = ("_pml", "_kind")

    def __init__(self, pml: "Pml", kind: str) -> None:
        super().__init__()
        self._pml = pml
        self._kind = kind

    def append(self, fn: HookFn) -> None:
        from repro.core.interpose import filter_guard_enabled, guard_hook

        if filter_guard_enabled():
            fn = guard_hook(self._pml, fn, self._kind)
        super().append(fn)


class Pml:
    """Per-physical-process point-to-point layer.

    A ``__slots__`` class whose ``__init__`` builds only the hot minimum:
    jobs construct one PML per physical process, so every eager dict and
    per-proc string here multiplies by 8192+ at scale.  Cold state —
    the rendezvous tables, the filter-guard set — is lazy behind ``None``
    sentinels, and the per-peer cost caches are **views into the job-level
    shared table** (see :class:`repro.network.fabric.CostTable`): all PMLs
    on a node share one send row and one recv row, keyed by peer node.
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
        "on_match",
        "on_recv_complete",
        "_incoming_filter",
        "ctrl_handlers",
        "svc_handlers",
        "_env_pool",
        "env_acquired",
        "env_allocated",
        "env_released",
        "env_stranded",
        "env_stranded_by_site",
        "_node_of",
        "_send_row",
        "_recv_row",
        "_release_frame",
        "_guard_pending",
        "_retain_ledger",
        "guard_violations",
        "sends_posted",
        "recvs_posted",
        "any_source_posts",
        "_interner",
        "env_hw_window",
        "env_high_water",
        "env_trimmed",
    )

    def __init__(
        self,
        sim: Simulator,
        fabric: Fabric,
        proc: int,
        interner: PayloadInterner,
    ) -> None:
        self.sim = sim
        self.fabric = fabric
        self.proc = proc
        self.endpoint = fabric.endpoint(proc)
        self.matching = MatchEngine()
        self._msg_id = 0
        # outstanding rendezvous state, lazily allocated: eager-only
        # workloads (every small-message tier) never touch it
        self._rdv_sends: Optional[Dict[int, Tuple[PmlSendRequest, Envelope]]] = None
        self._rdv_recvs: Optional[Dict[Tuple[int, int], PmlRecvRequest]] = None
        # interposition surface (hook lists wrap appends in the retain
        # guard when the runtime ownership guard is enabled)
        self.on_match: List[HookFn] = _HookList(self, "on_match")
        self.on_recv_complete: List[HookFn] = _HookList(self, "on_recv_complete")
        #: see the ``incoming_filter`` property
        self._incoming_filter: Optional[Callable[[Envelope], Generator]] = None
        #: ctrl envelopes are recycled the moment a handler returns —
        #: handlers get a borrow and must copy out whatever they need
        #: (``env.retain()``/``env.copy()`` are the escape hatches)
        self.ctrl_handlers: Dict[str, Callable[[Envelope], Generator]] = {}
        self.svc_handlers: Dict[str, Callable[[Any], Generator]] = {}
        #: free list shared by every envelope kind (see module docstring)
        self._env_pool: List[Envelope] = []
        #: arena accounting: every acquire must be matched by a release or
        #: an accounted strand (checked at end-of-run by the harness —
        #: crashy runs included, via the strand counters)
        self.env_acquired = 0
        self.env_allocated = 0  # pool misses (fresh constructions)
        self.env_released = 0
        #: envelopes abandoned mid-pipeline by a fail-stop crash: a process
        #: torn down while suspended inside frame handling (a CPU charge, a
        #: hook, a ctrl handler) strands the envelope the pipeline owned —
        #: the receive-path guards route it here instead of losing it
        self.env_stranded = 0
        #: strand *attribution*: {site: count} filled by :meth:`strand_env`
        #: (lazy — crash-free runs never allocate it)
        self.env_stranded_by_site: Optional[Dict[str, int]] = None
        # Per-peer cost views into the job-level shared CostTable: models
        # are immutable for a job's lifetime and identical per node pair,
        # so the rows are shared by every PML on this node and keyed by
        # peer *node* (one list index + one dict probe per frame).
        table = fabric.cost_table
        self._node_of = table.node_of
        my_node = self._node_of[proc]
        self._send_row: Dict[int, Tuple[float, int]] = table.send_row(my_node)
        self._recv_row: Dict[int, float] = table.recv_row(my_node)
        #: bound-method cache: one attribute chase per handled frame saved
        self._release_frame = fabric.release_frame
        #: filter-guard bookkeeping (see the ``incoming_filter`` property);
        #: ``None`` unless the debug guard is enabled
        self._guard_pending: Optional[set] = None
        #: hook-retain ledger: {id(env): (env, hook_name)} for envelopes a
        #: guarded hook retained and has not yet balanced with a release —
        #: ``None`` unless the debug guard recorded one (see
        #: :meth:`reap_retain_ledger`)
        self._retain_ledger: Optional[Dict[int, Tuple[Envelope, str]]] = None
        #: ownership-contract violations the guard recorded; re-raised in
        #: the harness teardown because crash unwinding swallows cleanup
        #: errors (``Process.crash``: the crash wins)
        self.guard_violations: Optional[List[str]] = None
        # counters
        self.sends_posted = 0
        self.recvs_posted = 0
        #: wildcard receives posted — the sharded engine treats any
        #: ANY_SOURCE post as a taint (match order under wildcards
        #: depends on same-timestamp dispatch interleaving that
        #: shard-local seq assignment cannot reproduce)
        self.any_source_posts = 0
        #: job-wide payload intern table (shared by every PML of a Job)
        self._interner = interner
        # Arena high-water tracking, windowed so the hot path stays one
        # compare: acquire sites bump ``env_hw_window`` from the current
        # outstanding count; :meth:`trim_env_pool` folds the window into
        # ``env_high_water`` and resets it, so after a trim the free list
        # re-sizes to the *recent* burst height, not the all-time peak.
        self.env_hw_window = 0
        self.env_high_water = 0
        #: pooled shells dropped by quiescent-point trims
        self.env_trimmed = 0

    # ------------------------------------------------------------ utilities
    def _next_msg_id(self) -> int:
        self._msg_id += 1
        return self._msg_id

    def model_to(self, dst_phys: int):
        return self.fabric.model_for(self.proc, dst_phys)

    def _send_cost_to(self, dst: int) -> Tuple[float, int]:
        """Row-fill slow path: price *dst* and publish it for every sharer."""
        model = self.fabric.model_for(self.proc, dst)
        cost = (model.send_overhead, model.eager_limit)
        self._send_row[self._node_of[dst]] = cost
        return cost

    # ------------------------------------------------------- incoming filter
    @property
    def incoming_filter(self) -> Optional[Callable[[Envelope], Generator]]:
        """Protocol hook intercepting application envelopes before matching.

        A filter that returns False takes *ownership* of the envelope: it
        must eventually hand it to :meth:`deliver_to_matching` or return it
        via :meth:`release_env` (duplicate drops), and a filter that owns
        an envelope across a ``yield`` must route it to :meth:`strand_env`
        when torn down mid-suspension (see :mod:`repro.core.interpose`).

        Assignment goes through a property so the runtime ownership guard
        (:func:`repro.core.interpose.filter_guard_enabled`) can wrap any
        filter — in-tree or custom — at install time.
        """
        return self._incoming_filter

    @incoming_filter.setter
    def incoming_filter(self, fn: Optional[Callable[[Envelope], Generator]]) -> None:
        if fn is not None:
            from repro.core.interpose import filter_guard_enabled, guard_incoming_filter

            if filter_guard_enabled():
                fn = guard_incoming_filter(self, fn)
        self._incoming_filter = fn

    # ------------------------------------------------------- envelope arena
    def acquire_env(
        self,
        kind: str,
        ctx: Any,
        src_rank: int,
        tag: int,
        world_src: int,
        world_dst: int,
        seq: int,
        nbytes: int,
        data: Any,
        dst_phys: int,
        msg_id: int = -1,
        ctrl_key: str = "",
    ) -> Envelope:
        """Pool-backed Envelope — the only allocation site on a send path.

        Every kind recycles: application envelopes (``eager``/``rts``/
        ``data``) are consumed by the receive pipeline and released when
        the last hook has run; protocol-private ones (``ctrl``/``cts``)
        are consumed exactly once inside
        :meth:`_handle_frame`/:meth:`_handle_cts`.  The caller owns the
        returned envelope until it injects it (ownership travels with the
        frame) or releases it.
        """
        if data is not None:
            data = self._interner.intern(data)
        acquired = self.env_acquired + 1
        self.env_acquired = acquired
        outstanding = acquired - self.env_released - self.env_stranded
        if outstanding > self.env_hw_window:
            self.env_hw_window = outstanding
        pool = self._env_pool
        if pool:
            env = pool.pop()
            env.kind = kind
            env.ctx = ctx
            env.src_rank = src_rank
            env.tag = tag
            env.world_src = world_src
            env.world_dst = world_dst
            env.seq = seq
            env.nbytes = nbytes
            env.data = data
            env.src_phys = self.proc
            env.dst_phys = dst_phys
            env.msg_id = msg_id
            env.ctrl_key = ctrl_key
            env._refs = 1
            return env
        self.env_allocated += 1
        return Envelope(
            kind=kind,
            ctx=ctx,
            src_rank=src_rank,
            tag=tag,
            world_src=world_src,
            world_dst=world_dst,
            seq=seq,
            nbytes=nbytes,
            data=data,
            src_phys=self.proc,
            dst_phys=dst_phys,
            msg_id=msg_id,
            ctrl_key=ctrl_key,
        )

    def release_env(self, env: Envelope) -> None:
        """Drop one ownership reference; recycle at zero.

        Explicit reset on recycle: the payload and context references are
        cleared so a parked envelope pins nothing.  Envelopes retained via
        :meth:`Envelope.retain` stay live until their holder releases.
        """
        pending = self._guard_pending
        if pending is not None:
            pending.discard(id(env))
        refs = env._refs
        if refs > 1:
            env._refs = refs - 1
            return
        ledger = self._retain_ledger
        if ledger is not None:
            # Last reference dropped: any hook retain was balanced.
            ledger.pop(id(env), None)
        self.env_released += 1
        env.ctx = None
        env.data = None
        pool = self._env_pool
        if len(pool) < 4096:
            pool.append(env)

    def strand_env(self, env: Envelope, site: str = "abandoned_pipeline") -> None:
        """Account one abandoned ownership reference (fail-stop teardown).

        The refcount discipline mirrors :meth:`release_env`: a strand drops
        the pipeline's reference, and the shell counts as stranded only
        when no retainer still holds it (a retained envelope will still be
        released — or stranded — by its holder).  Stranded shells are not
        pooled: behaviour is identical to the pre-accounting engine, only
        the counter moves.  *site* attributes the strand to the mechanism
        that dropped it (``abandoned_pipeline``, ``duplicate_window``, ...)
        for :attr:`repro.harness.runner.JobResult.stranded_by_site`.
        """
        pending = self._guard_pending
        if pending is not None:
            pending.discard(id(env))
        refs = env._refs
        if refs > 1:
            env._refs = refs - 1
            return
        ledger = self._retain_ledger
        if ledger is not None:
            ledger.pop(id(env), None)
        self.env_stranded += 1
        by_site = self.env_stranded_by_site
        if by_site is None:
            by_site = self.env_stranded_by_site = {}
        by_site[site] = by_site.get(site, 0) + 1
        env.ctx = None
        env.data = None

    def inject(self, env: Envelope, wire_bytes: int) -> Generator:
        """Charge sender overhead and put one frame on the wire.

        The zero-overhead case (LinearCostModel, teaching setups) yields
        nothing.  The hot send paths skip this generator altogether: they
        charge :meth:`send_cost` themselves, then :meth:`post_send` /
        :meth:`inject_ctrl`.
        """
        dst = env.dst_phys
        cost = self._send_row.get(self._node_of[dst])
        if cost is None:
            cost = self._send_cost_to(dst)
        if cost[0] > 0.0:
            try:
                yield cost[0]
            except BaseException:
                # Fail-stop crash mid-charge: the generator is being torn
                # down with the un-injected envelope in hand — account it.
                self.strand_env(env)
                raise
        self.fabric.send(self.proc, dst, wire_bytes, env, env.kind)

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
        if not synchronous and nbytes <= cost[1]:
            env = self.acquire_env(
                "eager",
                ctx,
                src_rank,
                tag,
                world_src,
                world_dst,
                seq,
                nbytes,
                payload,
                dst_phys,
                msg_id=msg_id,
            )
            self.fabric.send(self.proc, dst_phys, nbytes, env, "eager")
            req.done = True
        else:
            env = self.acquire_env(
                "rts", ctx, src_rank, tag, world_src, world_dst, seq, nbytes, payload, dst_phys, msg_id=msg_id
            )
            rdv = self._rdv_sends
            if rdv is None:
                rdv = self._rdv_sends = {}
            rdv[msg_id] = (req, env)
            rts = self.acquire_env(
                "rts", ctx, src_rank, tag, world_src, world_dst, seq, nbytes, None, dst_phys, msg_id=msg_id
            )
            self.fabric.send(self.proc, dst_phys, RTS_BYTES, rts, "rts")
        return req

    def inject_ctrl(self, dst_phys: int, ctrl_key: str, data: Any, nbytes: int = CTRL_BYTES) -> None:
        """Put one control frame on the wire *without* charging CPU.

        The caller must charge :meth:`send_cost` first (yield the seconds)
        — :meth:`send_ctrl` is the composed generator form.  The
        envelope and frame both come from the recycling arenas: control
        traffic (acks, decisions) outnumbers application frames under
        replication, so this path is allocation-free at steady state
        (acquire_env inlined — one call per control frame is measurable).
        """
        acquired = self.env_acquired + 1
        self.env_acquired = acquired
        outstanding = acquired - self.env_released - self.env_stranded
        if outstanding > self.env_hw_window:
            self.env_hw_window = outstanding
        pool = self._env_pool
        if pool:
            env = pool.pop()
            env.kind = "ctrl"
            env.ctx = None
            env.src_rank = -1
            env.tag = -1
            env.world_src = -1
            env.world_dst = -1
            env.seq = -1
            env.nbytes = nbytes
            env.data = data
            env.src_phys = self.proc
            env.dst_phys = dst_phys
            env.msg_id = -1
            env.ctrl_key = ctrl_key
            env._refs = 1
        else:
            self.env_allocated += 1
            env = Envelope(
                "ctrl", None, -1, -1, -1, -1, -1, nbytes, data, self.proc, dst_phys, ctrl_key=ctrl_key
            )
        self.fabric.send(self.proc, dst_phys, nbytes, env, "ctrl")

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
        if req.source == ANY_SOURCE:
            self.any_source_posts += 1
            self.fabric.any_source_posts += 1
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

    def _handle_frame(self, frame: Frame) -> Generator:
        # The frame is fully consumed by the field reads below; recycle it
        # immediately (before any yield) so an abandoned generator — a
        # process crashing mid-charge — cannot strand it outside the pool.
        # The envelope's ownership moves from the frame to this PML here.
        # (Fabric.release_frame inlined: once per frame handled.)
        kind = frame.kind
        payload = frame.payload
        src = frame.src
        fabric = self.fabric
        fabric.frames_released += 1
        frame.payload = None
        frame.fabric = None
        fpool = fabric._frame_pool
        if len(fpool) < 4096:
            fpool.append(frame)
        if kind == "svc":
            key, svc_payload = payload
            handler = self.svc_handlers.get(key)
            if handler is not None:
                yield from handler(svc_payload)
            return
        env: Envelope = payload
        if src >= 0:
            recv_row = self._recv_row
            overhead = recv_row.get(self._node_of[src])
            if overhead is None:
                overhead = fabric.model_for(src, self.proc).recv_overhead
                recv_row[self._node_of[src]] = overhead
            if overhead > 0.0:
                try:
                    yield overhead
                except BaseException:
                    # Crash mid-charge: this PML owns the envelope and the
                    # pipeline is being abandoned — account the strand.
                    self.strand_env(env)
                    raise
        if env.kind == "ctrl":
            handler = self.ctrl_handlers.get(env.ctrl_key)
            if handler is None:
                raise MpiError(f"proc {self.proc}: no handler for ctrl {env.ctrl_key!r}")
            # A handler may be a generator function (driven here) or a
            # plain function returning None — the latter avoids a
            # generator allocation for bookkeeping-only handlers.  Once it
            # returns, the envelope is recycled (handlers hold a borrow —
            # see the ctrl_handlers contract; release_env inlined: ctrl is
            # the majority frame kind under replication).
            gen = handler(env)
            if gen is not None:
                try:
                    yield from gen
                except BaseException:
                    self.strand_env(env)  # handler abandoned mid-borrow
                    raise
            if env._refs > 1:
                env._refs -= 1
            else:
                if self._retain_ledger is not None:
                    self._retain_ledger.pop(id(env), None)
                self.env_released += 1
                env.ctx = None
                env.data = None
                pool = self._env_pool
                if len(pool) < 4096:
                    pool.append(env)
        elif env.kind == "cts":
            yield from self._handle_cts(env)
        elif env.kind == "data":
            yield from self._handle_rdv_data(env)
        elif env.kind in ("eager", "rts"):
            filt = self._incoming_filter
            if filt is not None:
                # Ownership transfers to the filter: if it withholds the
                # envelope (returns False) it must deliver or release it.
                deliver = yield from filt(env)
                if not deliver:
                    return
            yield from self.deliver_to_matching(env)
        else:  # pragma: no cover - defensive
            raise MpiError(f"unknown frame kind {env.kind!r}")

    #: public alias — the blocking fast paths in :mod:`repro.mpi.api`
    #: inline ``progress_step`` (pop one frame / block) and drive this
    handle_frame = _handle_frame

    # ---------------------------------------------------- matching plumbing
    def deliver_to_matching(self, env: Envelope) -> Generator:
        """Offer an application envelope to MPI matching — consuming it.

        Called from frame handling, and by the replication layer when it
        releases held-back envelopes from its reorder buffer.  Ownership
        contract: this method consumes one reference — the envelope ends
        up either recycled (matched-and-completed) or parked in the
        unexpected queue, whose entries the PML releases when they match
        (or at teardown).
        """
        pending = self._guard_pending
        if pending is not None:
            # Filter-guard bookkeeping: ownership has left the filter.
            pending.discard(id(env))
        recv = self.matching.arrive(env)
        if recv is not None:
            # _matched inlined for the eager case (one call per matched
            # arrival); rendezvous and error paths take the method.
            if env.kind == "eager":
                recv.matched = env
                try:
                    for hook in self.on_match:
                        gen = hook(recv, env)
                        if gen is not None:
                            yield from gen
                    recv.lib_complete = True
                    for hook in self.on_recv_complete:
                        gen = hook(env, recv)
                        if gen is not None:
                            yield from gen
                except BaseException:
                    self.strand_env(env)  # pipeline abandoned mid-hook
                    raise
                # _complete_recv + release_env inlined (once per matched
                # eager; the bufferless receive is the common case).
                recv.data = env.data
                if recv.buf is not None:
                    self._copy_into_buf(recv, env)
                recv.status = Status(env.src_rank, env.tag, env.nbytes)
                recv.done = True
                recv.matched = None  # end of the borrow window
                if env._refs > 1:
                    env._refs -= 1
                else:
                    if self._retain_ledger is not None:
                        self._retain_ledger.pop(id(env), None)
                    self.env_released += 1
                    env.ctx = None
                    env.data = None
                    pool = self._env_pool
                    if len(pool) < 4096:
                        pool.append(env)
            else:
                yield from self._matched(recv, env, from_unexpected=False)
        else:
            if env.kind == "eager":
                # Fully received at the library level even though unexpected:
                # this *is* irecvComplete for the vProtocol layer (§3.3).
                # (_fire_recv_complete inlined: once per unexpected eager.)
                # The unexpected queue now owns the envelope; hooks borrow.
                for hook in self.on_recv_complete:
                    gen = hook(env, None)
                    if gen is not None:
                        yield from gen
            # rts: nothing to do until a receive is posted.

    def _matched(self, recv: PmlRecvRequest, env: Envelope, from_unexpected: bool) -> Generator:
        recv.matched = env
        if env.kind == "eager":
            try:
                for hook in self.on_match:
                    gen = hook(recv, env)
                    if gen is not None:
                        yield from gen
                if not from_unexpected:
                    # _fire_recv_complete inlined: once per matched eager.
                    recv.lib_complete = True
                    for hook in self.on_recv_complete:
                        gen = hook(env, recv)
                        if gen is not None:
                            yield from gen
            except BaseException:
                self.strand_env(env)  # pipeline abandoned mid-hook
                raise
            # _complete_recv + release_env inlined (the unexpected-queue
            # match is the hot path of every ANY_SOURCE-heavy workload).
            recv.lib_complete = True
            recv.data = env.data
            if recv.buf is not None:
                self._copy_into_buf(recv, env)
            recv.status = Status(env.src_rank, env.tag, env.nbytes)
            recv.done = True
            recv.matched = None  # end of the borrow window
            if env._refs > 1:
                env._refs -= 1
            else:
                if self._retain_ledger is not None:
                    self._retain_ledger.pop(id(env), None)
                self.env_released += 1
                env.ctx = None
                env.data = None
                pool = self._env_pool
                if len(pool) < 4096:
                    pool.append(env)
        elif env.kind == "rts":
            try:
                for hook in self.on_match:
                    gen = hook(recv, env)
                    if gen is not None:
                        yield from gen
            except BaseException:
                self.strand_env(env)  # pipeline abandoned mid-hook
                raise
            # Clear the sender to transfer the payload.  The RTS is fully
            # consumed by the field reads below; recycle it before the CTS
            # injection can yield (a crash mid-charge then strands only
            # the un-injected CTS, which inject() accounts).
            ctx = env.ctx
            seq = env.seq
            src_phys = env.src_phys
            msg_id = env.msg_id
            rdv = self._rdv_recvs
            if rdv is None:
                rdv = self._rdv_recvs = {}
            rdv[(src_phys, msg_id)] = recv
            recv.matched = None
            self.release_env(env)
            cts = self.acquire_env(
                "cts", ctx, -1, -1, -1, -1, seq, CTS_BYTES, None, src_phys, msg_id=msg_id
            )
            yield from self.inject(cts, CTS_BYTES)
        else:  # pragma: no cover - defensive
            raise MpiError(f"cannot match frame kind {env.kind!r}")

    def _handle_cts(self, cts: Envelope) -> Generator:
        rdv = self._rdv_sends
        entry = rdv.pop(cts.msg_id, None) if rdv is not None else None
        # The CTS is consumed by that single lookup: recycle it before the
        # DATA injection below can yield.
        self.release_env(cts)
        if entry is None:
            return  # send was cancelled (destination died)
        req, env = entry
        if req.cancelled:  # pragma: no cover - cancel also removes the entry
            self.release_env(env)
            return
        data_env = self.acquire_env(
            "data",
            env.ctx,
            env.src_rank,
            env.tag,
            env.world_src,
            env.world_dst,
            env.seq,
            env.nbytes,
            env.data,
            env.dst_phys,
            msg_id=env.msg_id,
        )
        self.release_env(env)
        yield from self.inject(data_env, data_env.nbytes)
        req.done = True

    def _handle_rdv_data(self, env: Envelope) -> Generator:
        rdv = self._rdv_recvs
        recv = rdv.pop((env.src_phys, env.msg_id), None) if rdv is not None else None
        if recv is None:
            self.release_env(env)
            return  # receive was cancelled after CTS
        try:
            yield from self._fire_recv_complete(env, recv)
        except BaseException:
            self.strand_env(env)  # pipeline abandoned mid-hook
            raise
        self._complete_recv(recv, env)
        self.release_env(env)

    def _fire_recv_complete(self, env: Envelope, recv: Optional[PmlRecvRequest]) -> Generator:
        if recv is not None:
            recv.lib_complete = True
        for hook in self.on_recv_complete:
            gen = hook(env, recv)
            if gen is not None:
                yield from gen

    def _copy_into_buf(self, recv: PmlRecvRequest, env: Envelope) -> None:
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

    def _complete_recv(self, recv: PmlRecvRequest, env: Envelope) -> None:
        recv.lib_complete = True
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
        for msg_id, (req, env) in list(rdv.items()):
            if req.dst_phys == dst_phys and not req.done:
                req.cancelled = True
                req.done = True
                del rdv[msg_id]
                self.release_env(env)
                cancelled += 1
        return cancelled

    # -------------------------------------------------------- observability
    def stats(self) -> dict:
        """PML-level counters: posting totals, arena accounting, matching."""
        return {
            "sends_posted": self.sends_posted,
            "recvs_posted": self.recvs_posted,
            "env_acquired": self.env_acquired,
            "env_allocated": self.env_allocated,
            "env_released": self.env_released,
            "env_stranded": self.env_stranded,
            "env_stranded_by_site": dict(self.env_stranded_by_site or ()),
            "env_pool_size": len(self._env_pool),
            "env_high_water": max(self.env_high_water, self.env_hw_window),
            "env_trimmed": self.env_trimmed,
            **self.matching.stats(),
        }

    # Retain a small cushion above the windowed high-water so a burst one
    # envelope taller than the last window does not immediately re-allocate.
    TRIM_SLACK = 32

    def trim_env_pool(self) -> int:
        """Quiescent-point arena trim: cap the free list at the recent burst.

        Called by the harness trimmer from the kernel's ``on_advance`` hook
        (between timestamp batches, never mid-batch), so no in-flight
        owner can be holding a shell the trim would drop.  Folds the
        acquire-side window into the run high-water, drops pooled shells
        beyond ``window + TRIM_SLACK``, and restarts the window at the
        currently outstanding count.  Without this, one peak burst sizes
        the free list for the rest of the run.
        """
        window = self.env_hw_window
        if window > self.env_high_water:
            self.env_high_water = window
        pool = self._env_pool
        bound = window + self.TRIM_SLACK
        dropped = len(pool) - bound
        if dropped > 0:
            del pool[bound:]
            self.env_trimmed += dropped
        else:
            dropped = 0
        self.env_hw_window = self.env_acquired - self.env_released - self.env_stranded
        return dropped

    def reap(self) -> int:
        """End-of-run teardown: release everything still parked here.

        Frames sitting in the inbox (e.g. a mirror duplicate that arrived
        after every application finished) and envelopes parked in the
        unexpected queue are well-defined leftovers of a completed run —
        returning them to the arenas is what lets the harness assert that
        every acquire was matched by a release.  Rendezvous retention is
        reaped too, though on a crash-free run it is empty (an incomplete
        send implies a blocked process, which the deadlock detector
        reports first).  Returns the number of envelopes released (strand
        attribution for retired stacks).
        """
        reaped = 0
        ep = self.endpoint
        while ep.inbox:
            frame = ep.inbox.popleft()
            payload = frame.payload
            kind = frame.kind
            self._release_frame(frame)
            if kind != "svc" and isinstance(payload, Envelope):
                self.release_env(payload)
                reaped += 1
        for env in self.matching.drain_unexpected():
            self.release_env(env)
            reaped += 1
        rdv = self._rdv_sends
        if rdv is not None:
            reaped += len(rdv)
            for _req, env in rdv.values():
                self.release_env(env)
            rdv.clear()
        return reaped

    def reap_retain_ledger(self) -> int:
        """Strand every hook retain that was never balanced — loudly.

        Runs after the protocol/PML reaps (a protocol whose teardown
        releases its retains clears its ledger entries on the way).
        Whatever is still here is a hook that called ``env.retain()`` and
        forgot the balancing :meth:`release_env`: the outstanding
        references are dropped so the arena balance stays provable
        (``unbalanced_retain`` strand site), and a violation naming the
        hook is recorded for the harness to raise.  Only populated when
        the runtime ownership guard wrapped the hooks
        (:func:`repro.core.interpose.guard_hook`).
        """
        ledger = self._retain_ledger
        if not ledger:
            return 0
        violations = self.guard_violations
        if violations is None:
            violations = self.guard_violations = []
        reaped = 0
        for env, hook_name in list(ledger.values()):
            violations.append(
                f"hook {hook_name!r} on proc {self.proc} retained an envelope "
                f"(kind={env.kind!r}, seq={env.seq}) without the balancing "
                "pml.release_env — every Envelope.retain() must be released "
                "(see the ownership contract in repro.core.interpose)"
            )
            # Drop every outstanding reference; the terminal strand pops
            # the ledger entry itself.
            while env._refs > 1:
                env._refs -= 1
            self.strand_env(env, "unbalanced_retain")
            reaped += 1
        ledger.clear()
        return reaped
