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

Every fail-stop drop site **counts what it strands**: the frame (and the
envelope riding in it) is accounted in ``frames_stranded``/``envs_stranded``
instead of silently vanishing, so the harness can assert
``acquired == released + stranded`` for both arenas even on crashy runs —
the zero-leak proof covers the failover/recovery scenarios the replication
protocols exist for, not just the happy path.  The sites are
:meth:`Fabric.crash`/:meth:`Fabric.revive` (dead-rank inbox clears),
:meth:`Endpoint.deliver` (arrival at a dead endpoint) and
:meth:`Fabric.inject` (send attempt by a dead source).

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

__all__ = ["Frame", "Endpoint", "Fabric", "CostTable"]


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
        self.node_of: List[int] = [placement.node_of(p) for p in range(len(placement))]
        self._models: List[Dict[int, Any]] = [{} for _ in range(max(self.node_of, default=-1) + 1)]
        self._send_rows: Dict[int, Dict[int, Tuple[float, int]]] = {}
        self._recv_rows: Dict[int, Dict[int, float]] = {}

    def model(self, src_node: int, dst_node: int):
        row = self._models[src_node]
        model = row.get(dst_node)
        if model is None:
            model = row[dst_node] = self.placement.cluster.model_for(src_node, dst_node)
        return model

    def model_for(self, src: int, dst: int):
        node_of = self.node_of
        return self.model(node_of[src], node_of[dst])

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
    """One unit of transfer on the wire.

    ``payload`` is opaque to the fabric; the PML owns its meaning.  ``size``
    is the number of bytes used for costing (header + payload).

    A frame doubles as its own *delivery event*: :meth:`Fabric.inject`
    stamps the owning fabric and pushes the frame straight onto the kernel
    queue; :meth:`fire` lands it in the destination inbox.  The seed engine
    allocated a ``_deliver`` closure plus a ``_Callback`` wrapper per frame
    — this is zero extra allocations on the same event count.

    Frames are *pooled*: the PML releases a frame back to the owning
    fabric's free list (:meth:`Fabric.release_frame`) the moment it has
    extracted the payload during frame handling, and :meth:`Fabric.send`
    recycles released instances instead of allocating.  Nothing outside
    the fabric/PML pair may retain a frame past ``Pml.handle_frame`` —
    inbox inspection (tests, diagnostics) is fine because release happens
    strictly after the frame leaves the inbox.
    """

    __slots__ = ("src", "dst", "size", "payload", "kind", "sent_at", "arrived_at", "fabric")

    cancelled = False  # deliveries are never revoked; crash drops at deliver()

    def __init__(
        self,
        src: int,
        dst: int,
        size: int,
        payload: Any,
        kind: str = "data",
        sent_at: float = -1.0,
        arrived_at: float = -1.0,
    ) -> None:
        self.src = src
        self.dst = dst
        self.size = size
        self.payload = payload
        self.kind = kind
        #: stamped by the fabric at injection / delivery (virtual seconds)
        self.sent_at = sent_at
        self.arrived_at = arrived_at
        #: owning fabric, stamped at injection (delivery-event plumbing)
        self.fabric: Optional["Fabric"] = None

    def fire(self) -> None:
        fabric = self.fabric
        self.arrived_at = fabric.sim._now
        fabric.endpoints[self.dst].deliver(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Frame(src={self.src}, dst={self.dst}, size={self.size}, "
            f"kind={self.kind!r}, sent_at={self.sent_at}, arrived_at={self.arrived_at})"
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
        "frames_sent",
        "bytes_received",
        "bytes_sent",
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
        #: waiters chained behind the armed head (see class docstring)
        self._chain: List[Event] = []
        self._chain_head: Optional[Event] = None
        #: observability counters
        self.frames_received = 0
        self.frames_sent = 0
        self.bytes_received = 0
        self.bytes_sent = 0

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
            # Fail-stop drop site: the frame (and any envelope it carries)
            # is stranded, never released — count it so the arena-balance
            # proof extends to crashy runs.
            fabric = frame.fabric
            if fabric is not None:
                fabric.strand_frame(frame)
            return
        self.inbox.append(frame)
        self.frames_received += 1
        self.bytes_received += frame.size
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
        #: free list of recycled Frame instances (see Frame docstring);
        #: bounded so pathological bursts cannot pin memory forever
        self._frame_pool: List[Frame] = []
        #: free-list accounting: every acquired frame must be released
        #: (checked at end-of-run by the harness on crash-free jobs)
        self.frames_acquired = 0
        self.frames_allocated = 0  # pool misses (fresh constructions)
        self.frames_released = 0
        # Frame-arena high-water tracking, windowed exactly like the PML
        # envelope arena (see Pml.trim_env_pool): acquire sites bump the
        # window, the quiescent-point trimmer folds it into the run
        # high-water and caps the free list at the recent burst height.
        self.frame_hw_window = 0
        self.frame_high_water = 0
        #: pooled frames dropped by quiescent-point trims
        self.frames_trimmed = 0
        #: crashes ever injected (sticky; observability — since the strand
        #: accounting below, crashy runs keep the arena-balance proof)
        self.crashes = 0
        #: fail-stop strand accounting: frames dropped at the drop sites
        #: (dead-rank inbox clears, arrivals at dead endpoints, sends by
        #: dead sources) and the envelopes those frames carried.  The
        #: harness asserts acquired == released + stranded on every run.
        self.frames_stranded = 0
        self.envs_stranded = 0
        #: strand *attribution*: {site: (frames, envelopes)} per fail-stop
        #: drop site (``inbox_clear``, ``dead_endpoint``, ``dead_source``)
        #: — surfaced in :attr:`JobResult.stranded_by_site` so failover
        #: experiments can report which mechanism stranded what
        self.strands_by_site: Dict[str, List[int]] = {}
        #: totals for message-complexity ablations (mirror vs parallel)
        self.total_frames = 0
        self.total_bytes = 0
        self.frames_by_kind: Dict[str, int] = {}
        #: seeded adversary (see :meth:`install_faults`); ``None`` — the
        #: default — keeps :meth:`inject` byte-identical to the reliable
        #: wire (one predictable-branch check per frame)
        self._faults: Optional[_FaultRuntime] = None
        #: envelopes *created* by link duplication: they enter the arena
        #: without an acquire_env, so the balance proof counts them on the
        #: acquired side (acquired + duplicated == released + stranded)
        self.envs_duplicated = 0
        #: fault observability: frames dropped / cloned / delay-spiked by
        #: the fault runtime (drops are also attributed per strand site)
        self.fault_drops = 0
        self.fault_dups = 0
        self.fault_delays = 0
        #: conservative-window shard router (:mod:`repro.sim.shard`).
        #: ``None`` — the default — keeps :meth:`inject` byte-identical to
        #: the serial wire.  When set, every inter-node frame's downlink
        #: pricing and delivery are *deferred* to the window barrier: the
        #: uplink is priced locally (the source node's procs all live in
        #: this shard), and the router collects the frame so the shard
        #: owning the destination node can price the shared downlink in
        #: canonical order (see ``shard.py``).
        self.shard_router: Optional[Any] = None
        #: cross-shard relay accounting: frames (and the envelopes they
        #: carry) handed to another shard / received from one.  An import
        #: routes through :meth:`acquire_frame` (so it already counts as
        #: acquired), an export leaves this arena's custody, making the
        #: per-shard frame balance
        #: ``acquired == released + stranded + exported``; imported
        #: *envelopes* are minted without an acquire_env and join the
        #: acquired side like :attr:`envs_duplicated`.  Globally exports
        #: equal imports, and the merged balance reduces to the serial
        #: ``acquired == released + stranded``.
        self.frames_exported = 0
        self.frames_imported = 0
        self.envs_exported = 0
        self.envs_imported = 0
        #: wildcard receives posted by any PML on this fabric (the sum of
        #: ``Pml.any_source_posts``): a shard worker's O(1) per-window
        #: any-source taint check
        self.any_source_posts = 0

    # ----------------------------------------------------------- attachment
    def endpoint(self, proc: int) -> Endpoint:
        return self.endpoints[proc]

    def model_for(self, src: int, dst: int):
        node_of = self._node_of
        return self.cost_table.model(node_of[src], node_of[dst])

    def is_alive(self, proc: int) -> bool:
        return self.endpoints[proc].alive

    # ------------------------------------------------------------ transfers
    def acquire_frame(self, src: int, dst: int, size: int, payload: Any, kind: str = "data") -> Frame:
        """Pool-backed frame for out-of-band senders (the failure detector's
        svc frames bypass :meth:`send` — they are not wire traffic — but
        still recycle through the free list so the accounting balances)."""
        acquired = self.frames_acquired + 1
        self.frames_acquired = acquired
        outstanding = acquired - self.frames_released - self.frames_stranded
        if outstanding > self.frame_hw_window:
            self.frame_hw_window = outstanding
        pool = self._frame_pool
        if pool:
            frame = pool.pop()
            frame.src = src
            frame.dst = dst
            frame.size = size
            frame.payload = payload
            frame.kind = kind
            frame.arrived_at = -1.0
        else:
            self.frames_allocated += 1
            frame = Frame(src, dst, size, payload, kind)
        # Stamped here as well as in inject(): out-of-band frames are
        # delivered straight to an endpoint, and the dead-endpoint drop
        # site needs the owning fabric to account the strand.
        frame.fabric = self
        return frame

    def send(self, src: int, dst: int, size: int, payload: Any, kind: str = "data") -> float:
        """Acquire a (possibly recycled) frame and put it on the wire.

        The hot-path entry every PML send site uses (acquire_frame's body
        is inlined here — one call per frame is measurable): one pool pop
        replaces the per-message Frame allocation once the pool has warmed
        up.  Returns the arrival time (see :meth:`inject`).
        """
        acquired = self.frames_acquired + 1
        self.frames_acquired = acquired
        outstanding = acquired - self.frames_released - self.frames_stranded
        if outstanding > self.frame_hw_window:
            self.frame_hw_window = outstanding
        pool = self._frame_pool
        if pool:
            frame = pool.pop()
            frame.src = src
            frame.dst = dst
            frame.size = size
            frame.payload = payload
            frame.kind = kind
            frame.arrived_at = -1.0
        else:
            self.frames_allocated += 1
            frame = Frame(src, dst, size, payload, kind)
        return self.inject(frame)

    def strand_frame(self, frame: Frame, site: str = "dead_endpoint") -> None:
        """Account a frame dropped at a fail-stop site (and the envelope it
        carries, if any).  Stranded objects are *not* pooled — behaviour is
        byte-identical to the silent drop, only the counters move — and the
        references are cleared so the dead frame pins nothing.  *site*
        attributes the drop to its mechanism for per-site reporting.
        """
        self.frames_stranded += 1
        cell = self.strands_by_site.get(site)
        if cell is None:
            cell = self.strands_by_site[site] = [0, 0]
        cell[0] += 1
        payload = frame.payload
        if payload is not None and frame.kind != "svc":
            # Application/protocol frames carry exactly one arena-owned
            # envelope; svc frames carry a plain tuple.
            self.envs_stranded += 1
            cell[1] += 1
        frame.payload = None
        frame.fabric = None

    def release_frame(self, frame: Frame) -> None:
        """Return a fully-consumed frame to the free list (explicit reset:
        drop the payload and fabric references so recycled frames never
        keep envelopes or simulators alive)."""
        self.frames_released += 1
        frame.payload = None
        frame.fabric = None
        pool = self._frame_pool
        if len(pool) < 4096:
            pool.append(frame)

    # Same cushion rationale as Pml.TRIM_SLACK.
    TRIM_SLACK = 32

    def trim_frame_pool(self) -> int:
        """Quiescent-point frame-arena trim (see :meth:`Pml.trim_env_pool`):
        cap the free list at the recent windowed high-water plus slack,
        fold the window into the run high-water, restart the window."""
        window = self.frame_hw_window
        if window > self.frame_high_water:
            self.frame_high_water = window
        pool = self._frame_pool
        bound = window + self.TRIM_SLACK
        dropped = len(pool) - bound
        if dropped > 0:
            del pool[bound:]
            self.frames_trimmed += dropped
        else:
            dropped = 0
        self.frame_hw_window = self.frames_acquired - self.frames_released - self.frames_stranded
        return dropped

    def stats(self) -> dict:
        """Free-list accounting (the harness asserts acquired == released
        at the end of every crash-free run) plus wire totals."""
        return {
            "frames_acquired": self.frames_acquired,
            "frames_allocated": self.frames_allocated,
            "frames_released": self.frames_released,
            "frames_stranded": self.frames_stranded,
            "envs_stranded": self.envs_stranded,
            "envs_duplicated": self.envs_duplicated,
            "fault_drops": self.fault_drops,
            "fault_dups": self.fault_dups,
            "fault_delays": self.fault_delays,
            "strands_by_site": {k: tuple(v) for k, v in self.strands_by_site.items()},
            "frames_exported": self.frames_exported,
            "frames_imported": self.frames_imported,
            "envs_exported": self.envs_exported,
            "envs_imported": self.envs_imported,
            "frame_pool_size": len(self._frame_pool),
            "frame_high_water": max(self.frame_high_water, self.frame_hw_window),
            "frames_trimmed": self.frames_trimmed,
            "total_frames": self.total_frames,
            "total_bytes": self.total_bytes,
        }

    def install_faults(self, plan, rng) -> None:
        """Arm the seeded network adversary described by *plan*.

        *plan* is a validated :class:`repro.network.model.FaultPlan`; *rng*
        is a dedicated ``numpy.random.Generator`` (campaigns hand out one
        named stream per concern, so arming faults never perturbs jitter or
        fault-schedule draws).  An empty plan disarms — ``inject`` falls
        back to the single ``_faults is None`` check and the wire is
        byte-identical to the reliable default.
        """
        plan.validate()
        self._faults = _FaultRuntime(plan, rng) if plan else None
        self._perturbed = self._perturbed or bool(plan)  # sticky: arms the FIFO clamp

    def inject(self, frame: Frame) -> float:
        """Put *frame* on the wire now.  Returns the arrival time.

        The caller (PML) is responsible for charging sender CPU overhead;
        the fabric charges wire serialization and propagation only.
        """
        src = frame.src
        dst = frame.dst
        src_ep = self.endpoints[src]
        if not src_ep.alive:
            # A crashed process cannot send; drop (the process is being
            # torn down and no correctness property may depend on it) —
            # but the frame was acquired, so account the strand.
            self.strand_frame(frame, "dead_source")
            return self.sim._now
        faults = self._faults
        if faults is not None:
            site, extra_delay, dup = faults.decide(frame, self.sim._now, self._node_of)
            if site is not None:
                # Lossy-wire drop site: the frame dies on the link, its
                # envelope is stranded under the fault mechanism's name,
                # and the sender is none the wiser (that is what the
                # replication protocols are for).
                self.fault_drops += 1
                self.strand_frame(frame, site)
                return self.sim._now
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
        if src_node != dst_node:
            # Uplink occupancy at the source node.
            src_busy = self._node_busy[src_node]
            t_up = src_busy[0]
            if t_up < now:
                t_up = now
            src_busy[0] = t_up + ser
            router = self.shard_router
            if router is not None:
                # Sharded-parallel mode: the destination node's downlink
                # cell may be owned by another shard, and even when it is
                # local its pricing order must be canonical across shards.
                # Price the uplink above (exclusively ours), count the
                # frame as sent, and defer downlink pricing + delivery to
                # the window barrier.  Lookahead guarantees the arrival
                # lands strictly after the current window, so deferral is
                # unobservable.  Callers discard the return value on every
                # PML send path; -1.0 marks "arrival priced at barrier".
                frame.sent_at = now
                src_ep.frames_sent += 1
                src_ep.bytes_sent += size
                self.total_frames += 1
                self.total_bytes += size
                by_kind = self.frames_by_kind
                kind = frame.kind
                by_kind[kind] = by_kind.get(kind, 0) + 1
                frame.fabric = self
                if extra_delay > 0.0:
                    self.fault_delays += 1
                router.defer(frame, now, t_up + model.latency, ser, extra_delay, self.sim._seq)
                return -1.0
            # Head reaches the destination NIC after the wire latency;
            # the frame then drains through the shared downlink.
            t_down = t_up + model.latency
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
            if self._jitter is not None:
                jit = self._jitter()
                if jit > 0.0:
                    arrival += jit
            if extra_delay > 0.0:
                # Delay spike: added before the FIFO clamp below, so a
                # spiked frame pushes the channel's arrival floor instead of
                # being overtaken — degradation never breaks channel order.
                self.fault_delays += 1
                arrival += extra_delay
            # FIFO guarantee per ordered channel, covering the
            # per-node-priced inter-node path.
            key = (src, dst)
            arrival = self._last_arrival[key] = max(arrival, self._last_arrival.get(key, 0.0))
        frame.sent_at = now
        src_ep.frames_sent += 1
        src_ep.bytes_sent += size
        self.total_frames += 1
        self.total_bytes += size
        by_kind = self.frames_by_kind
        kind = frame.kind
        by_kind[kind] = by_kind.get(kind, 0) + 1
        frame.fabric = self
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

    def _inject_duplicate(self, frame: Frame) -> None:
        """Clone *frame* and put the clone on the wire right behind it.

        The clone carries a *fresh* envelope (same wire identity, shared
        copy-on-write payload) so both copies can flow through the arena's
        single-owner release discipline independently; it is counted in
        :attr:`envs_duplicated` on the acquired side of the balance proof.
        The fault runtime is disarmed around the nested inject so a
        duplicate can never itself duplicate (or be dropped — one fault per
        original frame keeps campaign accounting legible).  Non-envelope
        payloads (raw-fabric tests, svc tuples) are never duplicated.
        """
        env = frame.payload
        if frame.kind != "eager" or env is None or not isinstance(env, _envelope_class()):
            return
        clone = type(env)(
            env.kind,
            env.ctx,
            env.src_rank,
            env.tag,
            env.world_src,
            env.world_dst,
            env.seq,
            env.nbytes,
            env.data,
            env.src_phys,
            env.dst_phys,
            env.msg_id,
            env.ctrl_key,
        )
        self.envs_duplicated += 1
        self.fault_dups += 1
        faults = self._faults
        self._faults = None
        try:
            dup_frame = self.acquire_frame(frame.src, frame.dst, frame.size, clone, frame.kind)
            self.inject(dup_frame)
        finally:
            self._faults = faults

    # ---------------------------------------------------- shard relay hooks
    def price_deferred(self, src: int, dst: int, t_head: float, ser: float, extra_delay: float) -> float:
        """Window-barrier downlink pricing for one deferred inter-node frame.

        Mirrors the tail of :meth:`inject` exactly: the frame's head
        reached the destination NIC at *t_head* (uplink + latency, priced
        in the source shard), drains through the shared downlink
        (``dst_busy[1]`` — owned by this shard, the destination node's
        owner), then the fault delay spike and the per-channel FIFO clamp
        apply in that order.  Callers must invoke this in canonical
        cross-shard order (see :mod:`repro.sim.shard`) so the downlink
        occupancy evolves exactly as the serial engine's inject-order
        pricing would.
        """
        dst_busy = self._node_busy[self._node_of[dst]]
        t_down = t_head
        if t_down < dst_busy[1]:
            t_down = dst_busy[1]
        arrival = t_down + ser
        dst_busy[1] = arrival
        if self._perturbed:
            if extra_delay > 0.0:
                arrival += extra_delay
            key = (src, dst)
            arrival = self._last_arrival[key] = max(arrival, self._last_arrival.get(key, 0.0))
        return arrival

    def export_frame(self, frame: Frame) -> None:
        """Hand *frame* (and its envelope) to another shard's custody.

        The local counters record the departure so the per-shard balance
        ``acquired == released + stranded + exported`` stays exact; the
        shell is recycled locally (the wire record, not the object,
        crosses the process boundary).
        """
        self.frames_exported += 1
        payload = frame.payload
        if payload is not None and frame.kind != "svc":
            self.envs_exported += 1
        frame.payload = None
        frame.fabric = None
        pool = self._frame_pool
        if len(pool) < 4096:
            pool.append(frame)

    def import_frame(self, src: int, dst: int, size: int, payload: Any, kind: str) -> Frame:
        """Materialize a relayed frame received from another shard."""
        self.frames_imported += 1
        if payload is not None and kind != "svc":
            self.envs_imported += 1
        return self.acquire_frame(src, dst, size, payload, kind)

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
        self.crashes += 1
        ep.alive = False
        self._strand_inbox(ep)
        for listener in list(self.on_crash):
            listener(proc)

    def revive(self, proc: int) -> None:
        """Re-attach a respawned process (recovery, §3.4)."""
        ep = self.endpoints[proc]
        ep.alive = True
        self._strand_inbox(ep)


_ENVELOPE_CLASS: Optional[type] = None


def _envelope_class() -> type:
    """The PML's Envelope type, resolved lazily (pml imports fabric, so the
    reverse import must happen at first duplication, never at module load)."""
    global _ENVELOPE_CLASS
    if _ENVELOPE_CLASS is None:
        from repro.mpi.pml import Envelope

        _ENVELOPE_CLASS = Envelope
    return _ENVELOPE_CLASS


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
