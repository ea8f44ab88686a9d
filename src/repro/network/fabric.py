"""The wire: reliable FIFO channels between physical processes.

Semantics match the paper's system model (§2.1):

* channels exist between every ordered pair of processes,
* channels are FIFO and reliable,
* no synchrony assumption — the cost model decides arrival times, and
  correctness never depends on them.

Crash semantics are fail-stop.  A crashed process injects nothing further;
frames already in flight are still delivered to live destinations (protocol
layers dedup via per-channel sequence numbers).  Frames addressed to a
crashed process are dropped on arrival.

A frame is one message: its routing (``src``/``dst``/``size``/``kind``) and
its envelope (the matching and replication fields) in one pooled object,
acquired once when it is posted and released once by whoever consumes it
last (see :mod:`repro.mpi.pml`).  Every fail-stop drop site **counts what
it strands** instead of silently dropping it, so the harness can assert
``acquired == released + stranded`` even on crashy runs — the zero-leak
proof covers the failover/recovery scenarios the replication protocols
exist for, not just the happy path.  The wire sites are
:meth:`Fabric.crash`/:meth:`Fabric.revive` (dead-rank inbox clears),
:meth:`Endpoint.deliver` (arrival at a dead endpoint),
:meth:`Fabric.inject` (send attempt by a dead source, link drops,
partitions) and the harness's horizon (``in_flight``); each attributes
``(frames 1, envs 1)`` to its site, ``(1, 0)`` for a svc notice.  A
message abandoned inside a PML pipeline attributes ``(0, 1)``.

Hot-path notes
--------------
:meth:`Fabric.inject` runs once per frame and is kept allocation-lean:
:class:`Frame` is a ``__slots__`` class, delivery is a dedicated slotted
event (:class:`_Delivery`) instead of a per-frame closure wrapped in a
kernel callback, and cost-model resolution goes through the job-level
:class:`CostTable` (proc → node resolved once; models and cost rows
memoized per *node pair* and shared by every PML) instead of chasing
placement dictionaries per frame.

Pricing state is O(nodes) + O(node pairs), never O(procs × peers): an
inter-node frame indexes its node pair's memoized model and the two nodes'
shared ``[uplink_free, downlink_free]`` cells (no key is allocated); only
an intra-node channel owns mutable state (``_chan_free``).  The per-channel
FIFO clamp (``_last_arrival``) fills lazily and is consulted only under
perturbation (jitter, a fault plan), where it keeps arrivals on an ordered
channel non-decreasing whichever path priced them; on the unperturbed wire
it cannot fire — proof beside the table in :meth:`Fabric.__init__`.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.network.topology import Placement
from repro.sim.kernel import Simulator
from repro.sim.sync import Event

__all__ = ["Frame", "Endpoint", "Fabric", "CostTable", "POOL_CAP"]

#: the bound on the job-wide frame pool per started 2,048 processes (a job
#: holds about 1.2 messages per process outstanding at its peak): a release
#: into a full pool drops the shell
POOL_CAP = 4096


class CostTable:
    """Job-level flyweight of every (src, dst) → cost-model resolution.

    Topology and cost parameters are immutable once a placement exists, so
    nothing about pricing needs to live per process: the cost model for a
    channel depends only on the *node pair* it crosses, and every process
    on a node shares the same row of send/recv costs toward every other
    node.  The seed engine cached these per endpoint — one
    ``{dst_proc: (overhead, eager_limit)}`` dict per PML, O(peers) entries
    × n_procs dicts — which at 8192+ processes is pure working-set growth
    for values that are all identical per node pair.

    One table per :class:`Fabric` (i.e. per job) replaces all of that:

    * :meth:`model` memoizes ``cluster.model_for`` per (src_node, dst_node)
      in node-indexed rows (``_models[src_node][dst_node]``) that
      :meth:`Fabric.inject` probes directly — no key tuple per frame;
    * :meth:`send_row` / :meth:`recv_row` hand out **shared, lazily filled**
      per-node dicts keyed by peer *node* — every PML on the node holds a
      reference to the same row, so the first PML to price a peer fills it
      for all of them (values are deterministic, so fill order is
      irrelevant);
    * :attr:`node_of` is the one proc → node list every hot path indexes.
    """

    __slots__ = ("placement", "node_of", "_models", "_send_rows", "_recv_rows")

    def __init__(self, placement: Placement) -> None:
        self.placement = placement
        self.node_of: List[int] = placement.proc_nodes
        self._models: List[Dict[int, Any]] = [{} for _ in range(max(self.node_of, default=-1) + 1)]
        self._send_rows: Dict[int, Dict[int, Tuple[float, int]]] = {}
        self._recv_rows: Dict[int, Dict[int, float]] = {}

    def model(self, src_node: int, dst_node: int):
        row = self._models[src_node]
        model = row.get(dst_node)
        if model is None:
            model = row[dst_node] = self.placement.cluster.model_for(src_node, dst_node)
        return model

    def send_row(self, src_node: int) -> Dict[int, Tuple[float, int]]:
        """Shared ``{dst_node: (send_overhead, eager_limit)}`` row."""
        row = self._send_rows.get(src_node)
        if row is None:
            row = self._send_rows[src_node] = {}
        return row

    def recv_row(self, dst_node: int) -> Dict[int, float]:
        """Shared ``{src_node: recv_overhead}`` row."""
        row = self._recv_rows.get(dst_node)
        if row is None:
            row = self._recv_rows[dst_node] = {}
        return row


class Frame:
    """One message: a unit of transfer on the wire and its envelope.

    ``src``/``dst`` are physical processes and ``size`` the bytes used for
    costing (header + payload).  The envelope fields are what the PML
    knows about the message: ``src_rank`` is the sender's rank *within the
    matching context* (what MPI matching sees); ``world_src``/``world_dst``
    are logical world ranks (what the replication protocol keys on);
    ``seq`` is the per (world_src → world_dst) application-message
    sequence number, identical across replicas by send-determinism.  A
    ``ctrl``/``svc`` message names its handler in ``ctrl_key`` and carries
    its value in ``data``.

    A frame doubles as its own *delivery event*: :meth:`Fabric.inject`
    stamps the owning fabric and pushes the frame straight onto the kernel
    queue; :meth:`fire` lands it in the destination inbox.

    Frames are *pooled*: :meth:`Fabric.acquire` recycles released shells
    from the job-wide free list, and each message is released
    (:meth:`Fabric.release_frame`) exactly once, by whoever consumes it
    last — the PML's ownership contract (:mod:`repro.mpi.pml`).  Hooks and
    handlers borrow a frame for the call only and copy out what they need.
    """

    __slots__ = (
        "kind", "src", "dst", "size", "ctx", "src_rank", "tag", "world_src", "world_dst", "seq",
        "nbytes", "data", "msg_id", "ctrl_key", "sent_at", "arrived_at", "fabric",
    )  # fmt: skip

    cancelled = False  # deliveries are never revoked; crash drops at deliver()

    def __init__(
        self,
        kind: str = "data",  # 'eager' | 'rts' | 'cts' | 'data' | 'ctrl' | 'svc'
        src: int = -1,
        dst: int = -1,
        size: int = 0,
        ctx: Any = None,
        src_rank: int = -1,
        tag: int = -1,
        world_src: int = -1,
        world_dst: int = -1,
        seq: int = -1,
        nbytes: int = 0,
        data: Any = None,
        msg_id: int = -1,
        ctrl_key: str = "",
    ) -> None:
        self.kind = kind
        self.src = src
        self.dst = dst
        self.size = size
        self.ctx = ctx
        self.src_rank = src_rank
        self.tag = tag
        self.world_src = world_src
        self.world_dst = world_dst
        self.seq = seq
        self.nbytes = nbytes
        self.data = data
        self.msg_id = msg_id
        self.ctrl_key = ctrl_key
        #: stamped by the fabric at injection / delivery (virtual seconds)
        self.sent_at = -1.0
        self.arrived_at = -1.0
        #: owning fabric while the message is live (delivery-event plumbing
        #: and the strand sites); cleared on release
        self.fabric: Optional["Fabric"] = None

    def fields(self) -> tuple:
        """The message's fields in :meth:`Fabric.acquire`'s argument order:
        ``acquire(*frame.fields())`` copies it (a duplicate, a relay)."""
        return (
            self.kind, self.src, self.dst, self.size, self.ctx, self.src_rank, self.tag, self.world_src,
            self.world_dst, self.seq, self.nbytes, self.data, self.msg_id, self.ctrl_key,
        )  # fmt: skip

    def fire(self) -> None:
        fabric = self.fabric
        self.arrived_at = fabric.sim._now
        fabric.endpoints[self.dst].deliver(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Frame(kind={self.kind!r}, src={self.src}, dst={self.dst}, size={self.size}, "
            f"ctx={self.ctx!r}, src_rank={self.src_rank}, tag={self.tag}, "
            f"world_src={self.world_src}, world_dst={self.world_dst}, seq={self.seq}, "
            f"nbytes={self.nbytes}, msg_id={self.msg_id}, ctrl_key={self.ctrl_key!r})"
        )


class Endpoint:
    """Per-physical-process attachment point.

    The inbox is a FIFO of delivered frames.  The armed waiter event is
    re-armed by the progress engine: it fires whenever a new frame lands,
    waking a process blocked inside an MPI call.  Frames landing while the
    process is computing simply accumulate (no asynchronous progress — §3.3).

    Concurrent waiters collapse onto one armed head event plus a waiter
    list: the head is succeeded by :meth:`deliver`, and the listed waiters
    are succeeded — in registration order — when the head fires.  The seed
    engine built the same wake-up cascade out of one nested closure per
    waiter; the list form does it with a single callback per armed head.
    """

    __slots__ = (
        "sim",
        "proc",
        "inbox",
        "alive",
        "_waiter",
        "_pwaiter",
        "_chain",
        "_chain_head",
        "_frame_label",
        "frames_received",
    )

    #: blocker-protocol attribute (see Process._wait_on): an endpoint is
    #: never "triggered" — a parked process is woken by deliver()
    triggered = False

    def __init__(self, sim: Simulator, proc: int) -> None:
        self.sim = sim
        self.proc = proc
        #: diagnostics label, built lazily — one f-string per endpoint is
        #: pure construction footprint at 8192+ processes, and the label
        #: is only read when a process actually parks on a waiter event
        self._frame_label: Optional[str] = None
        self.inbox: Deque[Frame] = deque()
        self.alive = True
        self._waiter: Optional[Event] = None
        #: a process parked directly on this endpoint (blocker protocol:
        #: the allocation-free fast path the MPI wait loops use by
        #: yielding the endpoint itself instead of a waiter event)
        self._pwaiter: Optional[Any] = None
        #: waiters chained behind the armed head (see class docstring);
        #: a new list per head, none before the first
        self._chain: Optional[List[Event]] = None
        self._chain_head: Optional[Event] = None
        #: frames delivered here (the shard parent's post-release check)
        self.frames_received = 0

    @property
    def label(self) -> str:
        """Diagnostics label (deadlock reports show what blocks a process)."""
        label = self._frame_label
        if label is None:
            label = self._frame_label = f"frame@{self.proc}"
        return label

    def block_process(self, process: Any) -> None:
        """Park *process* until a frame lands (Process blocker protocol)."""
        self._pwaiter = process

    def deliver(self, frame: Frame) -> None:
        if not self.alive:
            # Fail-stop drop site: the message is stranded, never
            # released — count it so the balance proof covers crashy runs.
            fabric = frame.fabric
            if fabric is not None:
                fabric.strand_frame(frame)
            return
        self.inbox.append(frame)
        self.frames_received += 1
        pwaiter = self._pwaiter
        if pwaiter is not None:
            # Wake the parked process exactly as a waiter event would: one
            # queue entry at the current time.
            self._pwaiter = None
            self.sim._bucket.append(pwaiter)
            return
        waiter = self._waiter
        if waiter is not None and not waiter.triggered:
            self._waiter = None
            waiter.succeed(None)

    def wait_for_frame(self) -> Event:
        """Event that fires as soon as the inbox is (or becomes) non-empty."""
        ev = Event(self.sim, label=self.label)
        if self.inbox:
            ev.succeed(None)
            return ev
        head = self._waiter
        if head is not None and not head.triggered:
            # Chain: multiple waiters collapse onto one underlying arm and
            # wake, in order, when the head fires (after the head's own
            # waiter has resumed — preserving the seed engine's wake order).
            if self._chain_head is not head:
                self._chain_head = head
                chain: List[Event] = []
                self._chain = chain
                head.add_callback(lambda _e, chain=chain: _wake_chain(chain))
            self._chain.append(ev)
        else:
            self._waiter = ev
        return ev


def _wake_chain(chain: List[Event]) -> None:
    for ev in chain:
        if not ev.triggered:
            ev.succeed(None)


class Fabric:
    """Delivers frames between endpoints according to a placement's models.

    Serialization: each ordered (src, dst) channel carries one frame at a
    time; a frame occupies the channel for ``model.serialization(size)``
    seconds, giving LogGP gap behaviour for streams without simulating
    individual packets.
    """

    def __init__(
        self,
        sim: Simulator,
        placement: Placement,
        jitter: Optional[Callable[[], float]] = None,
        cost_table: Optional[CostTable] = None,
    ) -> None:
        self.sim = sim
        self.placement = placement
        n_procs = len(placement)
        #: indexed by physical process id (ids are dense 0..n-1; a list
        #: makes the two lookups per frame cheaper than a dict)
        self.endpoints: List[Endpoint] = [Endpoint(sim, proc) for proc in range(n_procs)]
        self._jitter = jitter
        # Job-level shared pricing state: proc → node resolved once, cost
        # models memoized per *node pair* (see CostTable), and per-node
        # cost rows the PMLs share instead of keeping per-proc dicts.
        # A sweep executor may pass a prebuilt table so same-shape jobs
        # reuse one memoized pricing resolution (every cached value is a
        # pure function of the placement, so warmth cannot change results).
        if cost_table is not None and cost_table.placement is not placement:
            raise ValueError("cost_table was built for a different placement")
        self.cost_table = cost_table if cost_table is not None else CostTable(placement)
        self._node_of: List[int] = self.cost_table.node_of
        # Inter-node frames are priced per *node*: one [uplink_free,
        # downlink_free] cell each (8 ranks per node share one HCA in the
        # paper's testbed; cut-through: latency overlaps serialization).
        self._models = self.cost_table._models
        self._node_busy: List[List[float]] = [[0.0, 0.0] for _ in self._models]
        # Only an intra-node channel has mutable state of its own — the time
        # it is next free: one lazily built {dst: free_at} row per source.
        self._chan_free: List[Optional[Dict[int, float]]] = [None] * n_procs
        # Per-channel FIFO clamp {(src, dst): last arrival}: consulted (and
        # filled) only once ``_perturbed`` — a jitter callable, or a
        # non-empty plan in install_faults; sticky, so _inject_duplicate's
        # temporary ``_faults = None`` cannot skip it.  Unperturbed, it
        # cannot fire.  Inter-node: arrival = max(t_down, dst_busy[1]) + ser,
        # and dst_busy[1] never decreases and is >= the channel's previous
        # arrival.  Intra-node: arrival = max(channel_free, now) + ser +
        # latency, and channel_free *is* the previous arrival.  A missing
        # entry later means "no perturbed frame yet": same bound.
        self._last_arrival: Dict[Tuple[int, int], float] = {}
        self._perturbed = jitter is not None
        self.on_crash: List[Callable[[int], None]] = []
        #: the job-wide free list of released frames (see Frame docstring),
        #: bounded so pathological bursts cannot pin memory forever
        self._frame_pool: List[Frame] = []
        self._pool_cap = POOL_CAP * (n_procs // 2048 + 1)
        #: free-list accounting: every acquired message is released or
        #: stranded (the harness asserts it at the end of every run)
        self.frames_acquired = 0
        self.frames_allocated = 0  # pool misses (fresh constructions)
        self.frames_released = 0
        #: most messages ever outstanding at an acquire
        self.frame_high_water = 0
        #: messages stranded by a fail-stop, on the wire or in a pipeline
        self.frames_stranded = 0
        #: strand *attribution*: {site: [frames, envelopes]} per drop site
        #: (module docstring) — surfaced in :attr:`JobResult.stranded_by_site`
        #: so failover experiments can report which mechanism stranded what
        self.strands_by_site: Dict[str, List[int]] = {}
        #: totals for message-complexity ablations (mirror vs parallel)
        self.total_frames = 0
        self.total_bytes = 0
        self.frames_by_kind: Dict[str, int] = {}
        #: seeded adversary (see :meth:`install_faults`); ``None`` — the
        #: default — keeps :meth:`inject` byte-identical to the reliable
        #: wire (one predictable-branch check per frame)
        self._faults: Optional[_FaultRuntime] = None
        #: fault observability: frames dropped / cloned / delay-spiked by
        #: the fault runtime (drops are also attributed per strand site)
        self.fault_drops = 0
        self.fault_dups = 0
        self.fault_delays = 0
        #: sharded mode (:mod:`repro.sim.shard`); ``None``, the default, is
        #: the serial wire.  In a shard worker :meth:`inject` prices an
        #: inter-node frame's uplink, then appends ``(inject_time, shard_id,
        #: seq, frame, t_head, ser, extra_delay, sim_seq)`` here for the
        #: destination node's shard to price the downlink at the barrier
        #: (:meth:`price_downlink`).  The canonical merge key leads; ``seq``,
        #: the list position, is inject order within this shard's window;
        #: ``sim_seq`` is the kernel push counter where serial pushes.
        self.deferred: Optional[List[tuple]] = None
        self.shard_id = 0
        #: cross-shard relay accounting: messages handed to another shard /
        #: received from one.  An import is a regular acquire, an export
        #: leaves this fabric's custody, making the per-shard balance
        #: ``acquired == released + stranded + exported``; globally exports
        #: equal imports, and the merged balance is the serial one.
        self.frames_exported = 0
        self.frames_imported = 0

    # ----------------------------------------------------------- attachment
    def endpoint(self, proc: int) -> Endpoint:
        return self.endpoints[proc]

    def _unlink(self) -> None:
        """End of run: drop the crash listeners (bound to services that
        hold this fabric) and every process still parked on an endpoint."""
        self.on_crash.clear()
        for ep in self.endpoints:
            ep._pwaiter = None

    def model_for(self, src: int, dst: int):
        node_of = self._node_of
        return self.cost_table.model(node_of[src], node_of[dst])

    # ------------------------------------------------------------ transfers
    def acquire(
        self,
        kind: str,
        src: int,
        dst: int,
        size: int,
        ctx: Any = None,
        src_rank: int = -1,
        tag: int = -1,
        world_src: int = -1,
        world_dst: int = -1,
        seq: int = -1,
        nbytes: int = 0,
        data: Any = None,
        msg_id: int = -1,
        ctrl_key: str = "",
    ) -> Frame:
        """The one allocation site of a message: a (possibly recycled)
        frame the caller owns until it injects it (svc notices: delivers
        it straight to an endpoint) or releases it."""
        acquired = self.frames_acquired + 1
        self.frames_acquired = acquired
        outstanding = acquired - self.frames_released - self.frames_stranded
        if outstanding > self.frame_high_water:
            self.frame_high_water = outstanding
        pool = self._frame_pool
        if pool:
            frame = pool.pop()
            frame.kind = kind
            frame.src = src
            frame.dst = dst
            frame.size = size
            frame.ctx = ctx
            frame.src_rank = src_rank
            frame.tag = tag
            frame.world_src = world_src
            frame.world_dst = world_dst
            frame.seq = seq
            frame.nbytes = nbytes
            frame.data = data
            frame.msg_id = msg_id
            frame.ctrl_key = ctrl_key
            frame.arrived_at = -1.0
        else:
            self.frames_allocated += 1
            frame = Frame(
                kind, src, dst, size, ctx, src_rank, tag, world_src, world_dst, seq, nbytes, data, msg_id,
                ctrl_key,
            )  # fmt: skip
        frame.fabric = self
        return frame

    def strand_frame(self, frame: Frame, site: str = "dead_endpoint", on_wire: bool = True) -> None:
        """Account a message dropped at a fail-stop site.  Stranded shells
        are *not* pooled — behaviour is byte-identical to the silent drop,
        only the counters move — and the references are cleared so the
        dead message pins nothing.  *site* attributes the drop to its
        mechanism: ``(frames 1, envs 1)`` on the wire (``(1, 0)`` for a svc
        notice), ``(0, 1)`` for a message abandoned inside a pipeline
        (*on_wire* false).
        """
        self.frames_stranded += 1
        cell = self.strands_by_site.get(site)
        if cell is None:
            cell = self.strands_by_site[site] = [0, 0]
        if on_wire:
            cell[0] += 1
        if not on_wire or frame.kind != "svc":
            cell[1] += 1
        frame.ctx = frame.data = frame.fabric = None

    def release_frame(self, frame: Frame) -> None:
        """Return a consumed message to the free list (explicit reset: the
        context, payload and fabric references are dropped so a pooled
        shell keeps nothing alive)."""
        self.frames_released += 1
        frame.ctx = frame.data = frame.fabric = None
        pool = self._frame_pool
        if len(pool) < self._pool_cap:
            pool.append(frame)

    def stats(self) -> dict:
        """Free-list accounting (the harness asserts acquired == released +
        stranded + exported at the end of every run) plus wire totals."""
        return {
            "frames_acquired": self.frames_acquired,
            "frames_allocated": self.frames_allocated,
            "frames_released": self.frames_released,
            "frames_stranded": self.frames_stranded,
            "fault_drops": self.fault_drops,
            "fault_dups": self.fault_dups,
            "fault_delays": self.fault_delays,
            "strands_by_site": {k: tuple(v) for k, v in self.strands_by_site.items()},
            "frames_exported": self.frames_exported,
            "frames_imported": self.frames_imported,
            "frame_pool_size": len(self._frame_pool),
            "frame_high_water": self.frame_high_water,
            "total_frames": self.total_frames,
            "total_bytes": self.total_bytes,
        }

    def install_faults(self, plan, rng) -> None:
        """Arm the seeded network adversary described by *plan*.

        *plan* is a :class:`repro.network.model.FaultPlan`; *rng*
        is a dedicated ``numpy.random.Generator`` (campaigns hand out one
        named stream per concern, so arming faults never perturbs jitter or
        fault-schedule draws).  An empty plan disarms — ``inject`` falls
        back to the single ``_faults is None`` check and the wire is
        byte-identical to the reliable default.
        """
        self._faults = _FaultRuntime(plan, rng) if plan else None
        self._perturbed = self._perturbed or bool(plan)  # sticky: arms the FIFO clamp

    def inject(self, frame: Frame) -> float:
        """Put *frame* on the wire now.  Returns the arrival time — the
        current time when the frame is dropped (dead source, fault), -1.0
        when its downlink is left to the shard barrier (:attr:`deferred`).

        The caller (PML) is responsible for charging sender CPU overhead;
        the fabric charges wire serialization and propagation only.
        """
        src = frame.src
        dst = frame.dst
        src_ep = self.endpoints[src]
        if not src_ep.alive:
            # A crashed process cannot send; drop (the process is being
            # torn down and no correctness property may depend on it) —
            # but the message was acquired, so account the strand.
            self.strand_frame(frame, "dead_source")
            return self.sim._now
        faults = self._faults
        if faults is not None:
            site, extra_delay, dup = faults.decide(frame, self.sim._now, self._node_of)
            if site is not None:
                # Lossy-wire drop site: the message dies on the link, is
                # stranded under the fault mechanism's name, and the sender
                # is none the wiser (that is what the
                # replication protocols are for).
                self.fault_drops += 1
                self.strand_frame(frame, site)
                return self.sim._now
            if extra_delay > 0.0:
                self.fault_delays += 1
        else:
            extra_delay = 0.0
            dup = False
        node_of = self._node_of
        src_node = node_of[src]
        dst_node = node_of[dst]
        model = self._models[src_node].get(dst_node)
        if model is None:
            model = self.cost_table.model(src_node, dst_node)
        now = self.sim._now
        size = frame.size
        ser = model.serialization(size)
        frame.sent_at = now
        self.total_frames += 1
        self.total_bytes += size
        by_kind = self.frames_by_kind
        kind = frame.kind
        by_kind[kind] = by_kind.get(kind, 0) + 1
        frame.fabric = self
        if src_node != dst_node:
            # Uplink occupancy at the source node.
            src_busy = self._node_busy[src_node]
            t_up = src_busy[0]
            if t_up < now:
                t_up = now
            src_busy[0] = t_up + ser
            # Head reaches the destination NIC after the wire latency;
            # the frame then drains through the shared downlink.
            t_down = t_up + model.latency
            deferred = self.deferred
            if deferred is not None:
                # Sharded: the downlink and the delivery wait for the
                # barrier; lookahead puts the arrival strictly after this
                # window, so the deferral is unobservable.
                deferred.append(
                    (now, self.shard_id, len(deferred), frame, t_down, ser, extra_delay, self.sim._seq)
                )
                return -1.0
            dst_busy = self._node_busy[dst_node]
            if t_down < dst_busy[1]:
                t_down = dst_busy[1]
            arrival = t_down + ser
            dst_busy[1] = arrival
        else:
            row = self._chan_free[src]
            if row is None:
                row = self._chan_free[src] = {}
            depart = row.get(dst, 0.0)
            if depart < now:
                depart = now
            arrival = depart + ser + model.latency
            row[dst] = arrival
        if self._perturbed:
            arrival = self._perturb(src, dst, arrival, extra_delay)
        sim = self.sim
        if arrival > now:
            sim._seq += 1
            cohort = sim._cohorts.get(arrival)
            if cohort is None:
                sim._cohorts[arrival] = [(sim._seq, frame)]
                heappush(sim._queue, arrival)
            else:
                cohort.append((sim._seq, frame))
        else:
            # Zero-cost model: the frame arrives at the current time.
            sim._bucket.append(frame)
        if dup:
            self._inject_duplicate(frame)
        return arrival

    def _perturb(self, src: int, dst: int, arrival: float, extra_delay: float) -> float:
        """The perturbed tail of every priced frame: jitter, then the fault
        delay spike, then the per-channel FIFO clamp.  The spike lands
        before the clamp, so a spiked frame pushes the channel's arrival
        floor instead of being overtaken — degradation never breaks
        channel order, whichever path priced the frame."""
        if self._jitter is not None:
            jit = self._jitter()
            if jit > 0.0:
                arrival += jit
        if extra_delay > 0.0:
            arrival += extra_delay
        key = (src, dst)
        arrival = self._last_arrival[key] = max(arrival, self._last_arrival.get(key, 0.0))
        return arrival

    def _inject_duplicate(self, frame: Frame) -> None:
        """Clone *frame* and put the clone on the wire right behind it.

        The clone is a message of its own (same wire identity, shared
        copy-on-write payload, one acquire), so both copies flow through
        the single-owner release discipline independently.  The fault
        runtime is disarmed around the nested inject so a duplicate can
        never itself duplicate (or be dropped — one fault per original
        frame keeps campaign accounting legible).
        """
        self.fault_dups += 1
        faults = self._faults
        self._faults = None
        clone = self.acquire(*frame.fields())
        try:
            self.inject(clone)
        finally:
            self._faults = faults

    # ---------------------------------------------------- shard relay hooks
    def price_downlink(self, src: int, dst: int, t_head: float, ser: float, extra_delay: float) -> float:
        """Barrier pricing of a :attr:`deferred` frame whose head reached
        the destination NIC at *t_head*: the shared downlink drain (this
        shard owns the destination node), then :meth:`_perturb`.  Callers
        go in canonical cross-shard order (:mod:`repro.sim.shard`), so the
        downlink evolves as under the serial engine's inject order."""
        dst_busy = self._node_busy[self._node_of[dst]]
        t_down = t_head
        if t_down < dst_busy[1]:
            t_down = dst_busy[1]
        arrival = t_down + ser
        dst_busy[1] = arrival
        if self._perturbed:
            arrival = self._perturb(src, dst, arrival, extra_delay)
        return arrival

    def export_frame(self, frame: Frame) -> None:
        """Hand *frame* to another shard's custody.

        The local counter records the departure so the per-shard balance
        ``acquired == released + stranded + exported`` stays exact; the
        shell is recycled locally (the wire record, not the object,
        crosses the process boundary).
        """
        self.frames_exported += 1
        frame.ctx = frame.data = frame.fabric = None
        pool = self._frame_pool
        if len(pool) < self._pool_cap:
            pool.append(frame)

    def import_frame(self, *fields: Any) -> Frame:
        """A message relayed from another shard, as a fresh acquire of its
        fields: single ownership never crosses a process boundary."""
        self.frames_imported += 1
        return self.acquire(*fields)

    # --------------------------------------------------------------- faults
    def _strand_inbox(self, ep: Endpoint) -> None:
        """Strand-account and drop every frame queued at *ep* (dead-rank
        inbox clear — the frames will never be handled)."""
        inbox = ep.inbox
        while inbox:
            self.strand_frame(inbox.popleft(), "inbox_clear")

    def crash(self, proc: int) -> None:
        """Fail-stop endpoint *proc* and notify crash listeners."""
        ep = self.endpoints[proc]
        if not ep.alive:
            return
        ep.alive = False
        self._strand_inbox(ep)
        for listener in list(self.on_crash):
            listener(proc)

    def revive(self, proc: int) -> None:
        """Re-attach a respawned process (recovery, §3.4)."""
        ep = self.endpoints[proc]
        ep.alive = True
        self._strand_inbox(ep)


class _FaultRuntime:
    """Interprets a :class:`repro.network.model.FaultPlan` per injected frame.

    One seeded generator drives every probabilistic decision; draws happen
    in plan order (windows first-to-last, drop before dup per window), and
    windows that cannot affect a frame (closed, filtered out, zero
    probability) consume no draws — so adding a delay-only window to a plan
    never reshuffles the drop pattern of the windows before it.

    Duplication is drawn only for ``eager`` frames: eager messages are the
    fire-and-forget kind the protocols' per-channel sequence dedup covers.
    The rendezvous handshake (rts/cts/data) and protocol ctrl traffic are
    per-``msg_id`` stateful — the wire model delivers them exactly-once,
    while drops and partitions still apply to every kind (a dropped CTS is
    precisely how a lossy link wedges a rendezvous).
    """

    __slots__ = ("windows", "partitions", "rng", "_group_of")

    def __init__(self, plan, rng) -> None:
        self.windows = tuple(plan.windows)
        self.partitions = tuple(plan.partitions)
        self.rng = rng
        # node → group index per partition window (dict per window, built
        # once; nodes absent from every group share implicit group -1)
        self._group_of: List[Dict[int, int]] = [
            {node: gi for gi, group in enumerate(p.groups) for node in group}
            for p in self.partitions
        ]

    def decide(self, frame: Frame, now: float, node_of: List[int]) -> Tuple[Optional[str], float, bool]:
        """(strand site | None, extra arrival delay, duplicate?) for *frame*."""
        src_node = node_of[frame.src] if frame.src >= 0 else -1
        dst_node = node_of[frame.dst]
        if src_node != dst_node:
            for p, group_of in zip(self.partitions, self._group_of):
                if p.start <= now < p.end and group_of.get(src_node, -1) != group_of.get(dst_node, -1):
                    return "partition", 0.0, False
        delay = 0.0
        dup = False
        rng = self.rng
        for w in self.windows:
            if not (w.start <= now < w.end):
                continue
            if w.src_nodes is not None and src_node not in w.src_nodes:
                continue
            if w.dst_nodes is not None and dst_node not in w.dst_nodes:
                continue
            if w.drop_p > 0.0 and rng.random() < w.drop_p:
                return "link_drop", 0.0, False
            if not dup and w.dup_p > 0.0 and frame.kind == "eager" and rng.random() < w.dup_p:
                dup = True
            delay += w.delay
        return None, delay, dup
