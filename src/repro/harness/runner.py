"""Job launcher: build a simulated cluster, wire protocols, run to completion.

A :class:`Job` assembles the full stack for every physical process::

    app generator  ->  MpiProcess (OMPI)  ->  protocol (vProtocol layer)
                   ->  Pml (ob1)          ->  Fabric (BTL/wire)

Native jobs run ``n`` processes with the identity protocol; replicated jobs
run ``degree·n`` processes with the paper's placement (replica sets on
disjoint node halves, §4.2) and the selected replication protocol.

Every run ends the same way: :meth:`Job._close` returns its outcome as one
picklable part (a sharded run has one per shard) and :meth:`JobResult.merge`
turns the parts into the result — or raises the run's error.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from itertools import chain
from typing import Any, Callable, Dict, List, Optional

from repro.core.baselines import LeaderProtocol, MirrorProtocol, RedMpiProtocol
from repro.core.config import ReplicationConfig
from repro.core.interpose import NativeProtocol
from repro.core.io import VirtualFileSystem
from repro.core.membership import DetectorConfig, MembershipService
from repro.core.sdr import SdrProtocol
from repro.core.worlds import ReplicaMap
from repro.mpi.api import MpiProcess
from repro.mpi.comm import shared_world
from repro.mpi.errors import DeadlockError, MpiError
from repro.mpi.pml import Pml
from repro.network.fabric import CostTable, Fabric, Frame
from repro.network.model import FaultPlan
from repro.network.topology import (
    Cluster,
    Placement,
    round_robin_placement,
    split_halves_placement,
)
from repro.sim.kernel import Simulator
from repro.sim.process import Process
from repro.sim.rng import RngRegistry
from repro.sim.sync import AnyOf, Event

__all__ = ["Job", "JobResult", "JobShape", "cluster_for"]

_PROTOCOL_CLASSES = {
    "sdr": SdrProtocol,
    "mirror": MirrorProtocol,
    "leader": LeaderProtocol,
    "redmpi": RedMpiProtocol,
}


def cluster_for(n_ranks: int, degree: int = 1, cores_per_node: int = 8, **kwargs) -> Cluster:
    """Smallest paper-shaped cluster that fits n_ranks × degree processes."""
    if cores_per_node < 1:
        raise ValueError(f"cores_per_node must be >= 1, got {cores_per_node}")
    nodes_per_set = max(1, math.ceil(n_ranks / cores_per_node))
    return Cluster(nodes=nodes_per_set * max(1, degree), cores_per_node=cores_per_node, **kwargs)


@dataclass(frozen=True)
class JobShape:
    """Everything a :class:`Job` constructs that is a pure function of
    ``(n_ranks, cfg, cluster)``: the cluster, validated placement, replica
    map, shared world and memoized cost table.  All of it is immutable —
    or, for the cost table, a deterministic memo whose warmth cannot
    change results — so one shape can back every same-shape job of a
    sweep, and every replica stack of a job references its ``rmap``.
    The sweep executor caches one per ``(protocol, degree, n_ranks)``
    with hit/miss accounting (:class:`repro.harness.sweep.ShapeCache`);
    a plain ``Job(...)`` builds a private shape.
    """

    n_ranks: int
    cfg: ReplicationConfig
    cluster: Cluster
    placement: Placement
    rmap: ReplicaMap
    world_shared: Any
    cost_table: CostTable

    @classmethod
    def build(
        cls,
        n_ranks: int,
        cfg: Optional[ReplicationConfig] = None,
        cluster: Optional[Cluster] = None,
    ) -> "JobShape":
        cfg = cfg or ReplicationConfig(degree=1, protocol="native")
        cluster = cluster if cluster is not None else cluster_for(n_ranks, cfg.degree)
        rmap = ReplicaMap(n_ranks, cfg.degree)
        if cfg.degree > 1:
            placement: Placement = split_halves_placement(cluster, n_ranks, cfg.degree)
        else:
            placement = round_robin_placement(cluster, n_ranks)
        return cls(
            n_ranks=n_ranks,
            cfg=cfg,
            cluster=cluster,
            placement=placement,
            rmap=rmap,
            world_shared=shared_world(n_ranks),
            cost_table=CostTable(placement),
        )


@dataclass
class JobResult:
    """Outcome of one simulated execution."""

    #: virtual wall-clock: latest application finish time (seconds)
    runtime: float
    #: per physical process finish time
    finish_times: Dict[int, float]
    #: per physical process application return value
    app_results: Dict[int, Any]
    #: per physical process protocol statistics
    stats: Dict[int, dict]
    #: fabric totals (frame/byte counts, per-kind histogram)
    fabric: dict
    #: kernel events dispatched (simulation effort metric)
    events: int
    #: always 0 and not fields (no fingerprint key): ``perf/sdrperf`` still reads them
    payload_interned = payload_misses = 0
    #: open-loop traffic accounting (Job ``traffic`` ledger; all zero for
    #: closed-loop workloads, where no client population exists):
    #: ``offered == admitted + rejected`` and
    #: ``admitted == completed + lost`` hold on every audited run
    requests_offered: int = 0
    requests_admitted: int = 0
    requests_rejected: int = 0
    requests_completed: int = 0
    requests_lost: int = 0
    #: ranks that lost every replica (empty on success)
    lost_ranks: List[int] = field(default_factory=list)
    #: strand *attribution*: {site: {"frames": n, "envs": n}} — which
    #: fail-stop mechanism stranded what (``inbox_clear``,
    #: ``dead_endpoint``, ``dead_source``, ``abandoned_pipeline``,
    #: ``reorder_reap``, ``retired_stack``, ...), so failover experiments
    #: can report per-mechanism losses instead of one opaque total
    stranded_by_site: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: sharded-parallel metadata (:mod:`repro.sim.shard`): workers/shards
    #: used, lookahead, window count and any serial-fallback reasons.
    #: ``None`` — always, for the default serial path — so pre-existing
    #: fingerprints and reports stay byte-identical.
    parallel: Optional[dict] = None

    def stat_total(self, key: str) -> int:
        return sum(s.get(key, 0) for s in self.stats.values())

    @classmethod
    def merge(
        cls, parts: List[dict], until: Optional[float], allow_lost_ranks: bool, traffic: Any
    ) -> "JobResult":
        """The result of a run whose :meth:`Job._close` parts are *parts*:
        one for the serial engine, one per shard for the sharded one
        (:mod:`repro.sim.shard`).

        The one place a run builds its ``JobResult``, and the one place it
        raises the first process exception (lowest proc), ``DeadlockError``
        and the lost-rank ``MpiError``, in that order.  A single part's
        dicts become the result's as they are; several parts merge per proc
        in proc order, their counters add and the frame high-water mark
        takes the max.  *traffic* is the job's request ledger (``None``
        without one), already holding every part's commits.
        """
        failed = [exc for part in parts for exc in part["exceptions"]]
        if failed:
            raise min(failed, key=lambda pair: pair[0])[1]
        lost = parts[0]["lost_ranks"]
        blocked = {name: what for part in parts for name, what in part["blocked"].items()}
        if blocked and until is None and not (lost and allow_lost_ranks):
            raise DeadlockError(blocked)
        if lost and not allow_lost_ranks:
            raise MpiError(f"application lost ranks {lost}: every replica failed")
        if len(parts) == 1:
            (part,) = parts
            finish_times, app_results, stats = part["finish_times"], part["app_results"], part["stats"]
            fabric, stranded = part["fabric"], part["stranded_by_site"]
        else:
            finish_times, app_results, stats = (
                dict(sorted(chain.from_iterable(part[key].items() for part in parts)))
                for key in ("finish_times", "app_results", "stats")
            )
            fabric = _summed([part["fabric"] for part in parts])
            fabric["frame_high_water"] = max(part["fabric"]["frame_high_water"] for part in parts)
            stranded = _summed([part["stranded_by_site"] for part in parts])
        requests = traffic.totals() if traffic is not None else {}
        return cls(
            runtime=max(finish_times.values()) if finish_times else max(p["now"] for p in parts),
            finish_times=finish_times,
            app_results=app_results,
            stats=stats,
            fabric=fabric,
            events=sum(part["events"] for part in parts),
            requests_offered=requests.get("requests_offered", 0),
            requests_admitted=requests.get("requests_admitted", 0),
            requests_rejected=requests.get("requests_rejected", 0),
            requests_completed=requests.get("requests_completed", 0),
            requests_lost=requests.get("requests_lost", 0),
            lost_ranks=lost,
            stranded_by_site=stranded,
        )


def _summed(values: List[Any]) -> Any:
    """Element-wise sum of same-shaped counters: ints, tuples of ints, or
    dicts of those (keys unioned in first-seen order)."""
    first = values[0]
    if isinstance(first, dict):
        keys = dict.fromkeys(key for value in values for key in value)
        return {key: _summed([v[key] for v in values if key in v]) for key in keys}
    if isinstance(first, tuple):
        return tuple(map(sum, zip(*values)))
    return sum(values)


def _body(gen, proc: int, job: "Job"):
    """A started process's body: the application *gen*, then the finalize
    drain.  *job* is a weak proxy (see :meth:`Job._start_process`)."""
    result = yield from gen
    if proc not in job.finish_times and not job.processes[proc].crashed:
        job._unfinished -= 1
    job.finish_times[proc] = job.sim.now
    job.app_results[proc] = result
    job._maybe_all_done()
    # MPI_Finalize semantics: keep progressing protocol traffic (acks,
    # duplicate rendezvous handshakes, ...) until every live process has
    # finished its application code.  Without this, a peer's late
    # cross-replica transfer could wedge forever.
    pml = job.pmls[proc]
    while not job._app_all_done:
        done_ev = Event(job.sim, label=f"finalize({proc})")
        job._drain_waiters.append(done_ev)
        frame_ev = pml.endpoint.wait_for_frame()
        if job._shard_mode:
            job._drain_frame_waits[proc] = frame_ev
        yield AnyOf(job.sim, [done_ev, frame_ev])
        if job._shard_mode:
            job._drain_frame_waits.pop(proc, None)
            if not done_ev.triggered:
                # Frame wake, not the release: the parent compares these
                # times against the global completion time.
                job._drain_wakes.append(job.sim.now)
        yield from pml.drain()
    return result


class Job:
    """One simulated MPI execution (native or replicated)."""

    def __init__(
        self,
        n_ranks: int,
        cfg: Optional[ReplicationConfig] = None,
        cluster: Optional[Cluster] = None,
        seed: int = 0,
        jitter: Optional[Callable[[], float]] = None,
        detector: Optional[DetectorConfig] = None,
        fault_plan: Optional[FaultPlan] = None,
        shape: Optional[JobShape] = None,
        traffic: Optional[Any] = None,
        parallel: Optional[Any] = None,
    ) -> None:
        self.cfg = cfg or ReplicationConfig(degree=1, protocol="native")
        #: opt-in multi-core execution (a ``repro.sim.shard.ParallelConfig``).
        #: ``None`` — the default — is the serial engine, byte-identical to
        #: every previous release; a config routes :meth:`run` through the
        #: conservative-window shard pool (or its audited serial fallback).
        self.parallel = parallel
        #: open-loop request ledger (a ``repro.sim.traffic.TrafficBook``)
        #: whose totals surface in :class:`JobResult`; ``None`` — the
        #: default — leaves the result's request columns at zero
        self.traffic = traffic
        self.n_ranks = n_ranks
        if shape is not None:
            # Reusing a cached shape is only sound when the job would have
            # built the very same values — enforce it instead of trusting
            # the sweep executor's keying.
            if shape.n_ranks != n_ranks or shape.cfg != self.cfg:
                raise ValueError(
                    f"shape mismatch: shape is ({shape.n_ranks} ranks, {shape.cfg}), "
                    f"job wants ({n_ranks} ranks, {self.cfg})"
                )
            if cluster is not None and cluster != shape.cluster:
                raise ValueError("shape mismatch: Job cluster differs from shape.cluster")
        else:
            shape = JobShape.build(n_ranks, self.cfg, cluster)
        self.shape = shape
        self.rmap = shape.rmap
        self.cluster = shape.cluster
        self.placement: Placement = shape.placement
        self.sim = Simulator()
        self.rng = RngRegistry(seed)
        self.fabric = Fabric(self.sim, self.placement, jitter=jitter, cost_table=shape.cost_table)
        if fault_plan is not None:
            # Seeded network adversary (drops/dups/delay windows/partitions);
            # a dedicated rng stream keeps fault draws independent of jitter
            # and compute noise.  None — the default — leaves the wire
            # byte-identical to the reliable fabric.
            self.fabric.install_faults(fault_plan, self.rng.stream("net.faults"))
        self.membership = MembershipService(
            self.sim,
            self.fabric,
            self.rmap,
            detection_delay=self.cfg.detection_delay,
            detector=detector,
            rng=self.rng.stream("membership") if detector is not None else None,
        )
        #: the protocol class and its ctrl/svc handler tables, resolved by
        #: name once for every stack of the job, respawns included
        native = self.cfg.protocol == "native"
        cls = self._protocol_cls = NativeProtocol if native else _PROTOCOL_CLASSES[self.cfg.protocol]
        self._ctrl_table = {key: getattr(cls, name) for key, name in cls.CTRL_HANDLERS.items()}
        self._svc_table = {key: getattr(cls, name) for key, name in cls.SVC_HANDLERS.items()}
        self.vfs = VirtualFileSystem(self.sim)
        self.pmls: Dict[int, Pml] = {}
        self.protocols: Dict[int, Any] = {}
        self.mpis: Dict[int, MpiProcess] = {}
        self.processes: Dict[int, Process] = {}
        self.finish_times: Dict[int, float] = {}
        self.app_results: Dict[int, Any] = {}
        #: name -> wait label of each process still blocked when a serial
        #: run closed, as ``DeadlockError`` lists them (a horizon run keeps it)
        self.blocked: Dict[str, str] = {}
        self._app_factory: Optional[Callable] = None
        self._app_kwargs: dict = {}
        self._app_all_done = False
        #: started slots whose current process has neither finished its
        #: application nor crashed: the all-done flip fires at zero
        self._unfinished = 0
        self._drain_waiters: List[Any] = []
        #: sharded-parallel drain coordination (:mod:`repro.sim.shard`).
        #: In a shard worker `_maybe_all_done` must not flip on *local*
        #: completion — the parent establishes global completion across
        #: shards and commands `_release_drain`.  `_drain_wakes`
        #: records frame-wake times inside the finalize drain loop (the
        #: parent's taint check) and `_drain_frame_waits` the currently
        #: armed frame-wait per parked proc (so the release can retire
        #: the one park the serial engine never creates).
        self._shard_mode = False
        self._drain_wakes: List[float] = []
        self._drain_frame_waits: Dict[int, Any] = {}
        #: (pml, protocol) stacks replaced by a respawn: their parked
        #: messages still take part in the end-of-run balance, so they are
        #: retired here instead of vanishing when ``spawn_replica``
        #: overwrites the per-proc dicts.
        self._retired_stacks: List[Any] = []
        #: teardown-reap strand attribution (see JobResult.stranded_by_site)
        self._reap_sites: Dict[str, int] = {"reorder_reap": 0, "retired_stack": 0}
        #: crash callbacks fired (sharded mode replays every crash in every
        #: shard; the merge subtracts the duplicate event dispatches)
        self._crash_fired = 0
        self._ran = False
        #: every process's exit callback, one per job (:meth:`_unlink` drops it)
        self._exit_cb: Optional[Callable[[Process], None]] = self._on_exit
        # Partial replication: replicas of unreplicated ranks simply do not
        # exist.  Mark their slots dead *before* protocols initialize, then
        # replay Algorithm 1's failure handling synchronously so replica-0
        # processes adopt the bereaved destinations from the start (an
        # absent replica is a replica that failed before t=0).
        self.absent: set = set()
        if self.cfg.replicated_ranks is not None:
            for rank in range(n_ranks):
                if not self.cfg.rank_is_replicated(rank):
                    for rep in range(1, self.cfg.degree):
                        proc = self.rmap.phys(rank, rep)
                        self.absent.add(proc)
                        self.fabric.endpoints[proc].alive = False
        for proc in range(self.rmap.n_procs):
            self._build_stack(proc)
        for absent_proc in sorted(self.absent):
            for proc, proto in self.protocols.items():
                if proc in self.absent:
                    continue
                handler = getattr(proto, "on_failure", None)
                if handler is not None:
                    for _ in handler(absent_proc):  # pragma: no cover - no yields at init
                        pass

    # ------------------------------------------------------------- plumbing
    def _build_stack(self, proc: int) -> None:
        old_pml = self.pmls.get(proc)
        if old_pml is not None:
            self._retired_stacks.append((old_pml, self.protocols[proc]))
            # The replaced API object dies with its crashed process.
            self.mpis[proc].world.api = None
        pml = Pml(self.sim, self.fabric, proc)
        if self.cfg.protocol == "native":
            protocol = NativeProtocol(pml, world_rank=proc)
        else:
            protocol = self._protocol_cls(pml, self.rmap, self.membership, self.cfg)
        pml.protocol, pml.ctrl_table, pml.svc_table = protocol, self._ctrl_table, self._svc_table
        rank = self.rmap.rank_of(proc)
        mpi = MpiProcess(self.sim, pml, protocol, rank, self.shape.world_shared)
        if self.cluster.compute_noise > 0:
            # Stream keyed by (rank, replica): replica 0 sees the same noise
            # as the native run's rank, replica 1 sees independent noise —
            # the timing divergence the ack protocol has to absorb.
            rep = self.rmap.rep_of(proc)
            stream = self.rng.stream(f"noise.r{rank}.k{rep}")
            mpi.noise = (stream, self.cluster.compute_noise)
        mpi.vfs = self.vfs
        self.pmls[proc] = pml
        self.protocols[proc] = protocol
        self.mpis[proc] = mpi

    def _start_process(self, proc: int, gen) -> None:
        rank, rep = self.rmap.pair(proc)
        name = f"p{rep}_{rank}" if self.cfg.degree > 1 else f"p{rank}"
        # The new process counts unless its slot already finished.  A respawn
        # replaces a crashed process, which stopped counting when it crashed;
        # a still-live predecessor's count carries over.
        old = self.processes.get(proc)
        if proc not in self.finish_times and (old is None or old.crashed):
            self._unfinished += 1
        # A weak proxy: a process left suspended must not hold the job in a
        # cycle.  The body only runs inside run(), whose caller holds the job.
        process = Process(self.sim, _body(gen, proc, weakref.proxy(self)), name=name, on_exit=self._exit_cb)
        process.slot = proc
        self.processes[proc] = process

    def _on_exit(self, process: Process) -> None:
        # Runs right after Process._finish set ``crashed``.  Only a crash of
        # the slot's current, unfinished process moves the count; any other
        # exit leaves the all-done answer as the last finish left it.
        proc = process.slot
        if process.crashed and self.processes.get(proc) is process and proc not in self.finish_times:
            self._unfinished -= 1
            self._maybe_all_done()

    def _maybe_all_done(self) -> None:
        if self._app_all_done:
            return
        if self._shard_mode:
            # A shard must not flip on shard-local completion: the drain
            # loop keeps progressing protocol traffic until the parent
            # establishes *global* completion and commands the release.
            return
        if self._unfinished:
            return
        self._release_drain()

    def _release_drain(self, last_proc: Optional[int] = None) -> None:
        """The all-done flip: wake every parked drain loop.  Serially the
        last finish calls it (:meth:`_maybe_all_done`); a shard worker, on
        parent command between lookahead windows once every shard has
        reported local completion (:mod:`repro.sim.shard`).  *last_proc* is
        the globally last finisher when the completion trigger was an
        application finish: serially that process flips the flag inside
        its own finish dispatch and never parks in the drain loop, so its
        pending frame-wait is abandoned here (no stale endpoint waiter)
        and the merge subtracts the two dispatches its extra done-event
        wake costs.  All other parked processes wake exactly as the
        serial flip would wake them.
        """
        if last_proc is not None:
            ev = self._drain_frame_waits.get(last_proc)
            if ev is not None:
                ev.abandon()
        self._app_all_done = True
        for ev in self._drain_waiters:
            if not ev.triggered:
                ev.succeed(None)
        self._drain_waiters.clear()

    # ------------------------------------------------------------------ API
    def launch(self, app_factory: Callable[..., Any], **kwargs: Any) -> "Job":
        """Instantiate the application on every physical process.

        ``app_factory(mpi, **kwargs)`` must return the rank's generator.
        Recoverable applications additionally accept ``state=``.
        """
        self._app_factory = app_factory
        self._app_kwargs = dict(kwargs)
        if self.parallel is not None:
            # Sharded mode: process start is deferred to the shard workers
            # (each fork starts exactly its own procs, in proc order, so
            # every shard's t=0 bucket is the serial order's projection).
            # The serial fallback calls _launch_now() instead.
            return self
        self._launch_now()
        return self

    def _launch_now(self) -> None:
        for proc in range(self.rmap.n_procs):
            if proc in self.absent:
                continue
            self._start_process(proc, self._app_factory(self.mpis[proc], **self._app_kwargs))

    def spawn_replica(self, proc: int, app_state: Any, proto_state: dict) -> None:
        """Respawn a replica at slot *proc* (recovery fork, §3.4)."""
        if self._app_factory is None:
            raise MpiError("cannot respawn before launch()")
        self._build_stack(proc)
        protocol = self.protocols[proc]
        protocol.adopt_state(proto_state)
        gen = self._app_factory(self.mpis[proc], state=app_state, **self._app_kwargs)
        self._start_process(proc, gen)

    def crash(self, rank: int, rep: int = 1, at: float = 0.0) -> "Job":
        """Schedule a fail-stop crash of replica *rep* of *rank* at time *at*."""
        proc = self.rmap.phys(rank, rep)

        def do_crash() -> None:
            self._crash_fired += 1
            self.membership.crash(proc)  # wire-level + detector fan-out
            process = self.processes.get(proc)
            if process is not None:
                process.crash()

        self.sim.call_at(at, do_crash)
        return self

    def run(
        self,
        until: Optional[float] = None,
        allow_lost_ranks: bool = False,
        audit: Optional[bool] = None,
    ) -> JobResult:
        """Run to completion; detects deadlock and lost ranks.

        *audit* controls the end-of-run arena-balance proof.  The default
        (``None``) keeps the historical behaviour: audit exactly when the
        job runs to completion (``until is None``).  Campaigns pass
        ``audit=True`` with a horizon — a wedged (deadlocked/partitioned)
        run is audited too, after stranding whatever was still in flight
        at the horizon (see :meth:`audit`).

        With ``parallel=ParallelConfig(...)`` the run executes across the
        conservative-window shard pool (:mod:`repro.sim.shard`): each
        shard closes its own processes and the parts merge into the same
        :class:`JobResult` the serial engine produces — byte-identical
        fingerprints are the contract, hypothesis-proven.

        A job runs once.  However the run ends, it then unlinks its dispatch
        plumbing (:meth:`_unlink`), so a dropped job frees by reference
        counting instead of waiting for a full collection.
        """
        if self._ran:
            raise RuntimeError(f"Job({self.n_ranks} ranks, protocol {self.cfg.protocol!r}) has already run")
        self._ran = True
        try:
            if self.parallel is not None:
                from repro.sim.shard import run_parallel

                return run_parallel(self, until=until, allow_lost_ranks=allow_lost_ranks, audit=audit)
            return self._run_serial(until=until, allow_lost_ranks=allow_lost_ranks, audit=audit)
        finally:
            self._unlink()

    def _unlink(self) -> None:
        """Break the cycles a finished run leaves (protocol tables, world
        communicators, crash listeners, recovery hooks, suspended processes'
        waits); what post-run readers use stays, :meth:`audit` included."""
        for process in self.processes.values():
            if process.alive:
                process._release_wait()
        for pml, proto in chain(zip(self.pmls.values(), self.protocols.values()), self._retired_stacks):
            pml._unlink()
            if getattr(proto, "recovery_hook", None) is not None:
                proto.recovery_hook = None
        for mpi in self.mpis.values():
            mpi.world.api = None
        self.fabric._unlink()
        self._exit_cb = None

    def _run_serial(
        self,
        until: Optional[float] = None,
        allow_lost_ranks: bool = False,
        audit: Optional[bool] = None,
    ) -> JobResult:
        if audit is None:
            audit = until is None
        self.sim.run(until=until)
        part = self._close(self.protocols, until, allow_lost_ranks, audit)
        return JobResult.merge([part], until, allow_lost_ranks, self.traffic)

    def _close(self, procs, until: Optional[float], allow_lost_ranks: bool, audit: bool) -> dict:
        """End the run: its outcome over *procs* as one picklable part for
        :meth:`JobResult.merge` (a shard worker passes its own processes,
        which are also the only ones it started).

        The audit runs exactly where the merge will not raise: no process
        exception, no deadlock, no lost-rank error.  A shard judges that by
        its own processes — a deadlock elsewhere makes the merge raise
        before this shard's audit state matters.  The part's exceptions
        are ``(proc, exception)`` pairs in proc order.
        """
        lost = sorted(self.membership.lost_ranks)
        blocked = self.blocked = {
            p.name: (p._waiting_on.label if p._waiting_on is not None else "<runnable>")
            for proc, p in self.processes.items()
            if p.alive and proc not in self.finish_times
        }
        exceptions = [(proc, p.exception) for proc, p in self.processes.items() if p.exception is not None]
        raises = (
            exceptions
            or (blocked and until is None and not (lost and allow_lost_ranks))
            or (lost and not allow_lost_ranks)
        )
        if audit and not raises:
            self.audit()
        fab = self.fabric
        return {
            "exceptions": exceptions,
            "blocked": blocked,
            "lost_ranks": lost,
            "finish_times": dict(self.finish_times),
            "app_results": dict(self.app_results),
            "stats": {p: self.protocols[p].stats() for p in procs},
            "fabric": {
                "frames": fab.total_frames,
                "bytes": fab.total_bytes,
                "by_kind": dict(fab.frames_by_kind),
                **fab.stats(),
            },
            "events": self.sim.events_dispatched,
            "now": self.sim.now,
            "stranded_by_site": self._strand_attribution(),
            "traffic_committed": self.traffic._committed if self.traffic is not None else None,
        }

    def audit(self) -> None:
        """Machine-check the zero-leak contract on this run, whatever state
        it stopped in: strand anything still in flight at the stop time,
        then assert ``acquired == released + stranded`` over the message pool.
        Also callable directly by campaign drivers after a run that raised
        (a failed run must still balance its books).
        """
        self._strand_in_flight()
        self._assert_arenas_balanced()

    def _strand_in_flight(self) -> None:
        """Strand frames still sitting in the kernel queue at the horizon.

        A job stopped at ``until`` leaves undelivered frames in the queue
        — nobody will ever release them, so the balance proof attributes
        them to the ``in_flight`` site.  Safe
        only once the run is over: a stranded frame must not fire.
        """
        sim = self.sim
        fab = self.fabric
        pending = [ev for cohort in sim._cohorts.values() for _seq, ev in cohort]
        pending.extend(sim._bucket)
        for ev in pending:
            if type(ev) is Frame and ev.fabric is not None:
                fab.strand_frame(ev, "in_flight")
        # Nothing queued may run any more; pending closures hold the job.
        sim._queue.clear()
        sim._cohorts.clear()
        sim._bucket.clear()

    def _strand_attribution(self) -> Dict[str, Dict[str, int]]:
        """Merge every drop site's counters into one {site: {frames, envs}}
        map: the fabric's fail-stop sites and receive-pipeline guards, and
        the teardown reaps."""
        by_site: Dict[str, Dict[str, int]] = {
            site: {"frames": cell[0], "envs": cell[1]}
            for site, cell in self.fabric.strands_by_site.items()
        }
        for site, n in self._reap_sites.items():
            if n:
                entry = by_site.setdefault(site, {"frames": 0, "envs": 0})
                entry["envs"] += n
        return by_site

    def _assert_arenas_balanced(self) -> None:
        """Leak check: every message acquire has a release or an accounted
        strand.

        Runs in the teardown of every run-to-completion job — **crashy
        runs included**: the fail-stop drop sites (fabric injects by dead
        sources, arrivals at dead endpoints, dead-rank inbox clears) and
        the receive-pipeline ownership guards (generators abandoned
        mid-charge or mid-hook by a crash) count what they strand, so
        ``acquired == released + stranded`` stays provable through
        failover and recovery — exactly the scenarios the replication
        protocols exist for.  Leftovers with a well-defined end-of-run
        owner — inbox frames that arrived after the last application
        statement, unexpected-queue messages the application never
        received, reorder-buffer early arrivals orphaned by a crash — are
        released first; anything still unbalanced after
        that is an ownership bug in the delivery path.
        """
        # Survivors blocked forever (lost-rank scenarios tolerated via
        # allow_lost_ranks) still hold suspended generators: closing them
        # routes any messages they were borrowing to the strand counters.
        for process in self.processes.values():
            process.abandon()
        live = [(self.pmls[p], self.protocols[p]) for p in self.pmls]
        reap_sites = self._reap_sites
        for pml, proto in live:
            reap = getattr(proto, "reap", None)
            if reap is not None:
                reap_sites["reorder_reap"] += reap() or 0
            pml.reap()
        # Stacks replaced by a respawn: everything they still parked is
        # attributed to the retirement, not the live stacks' reaping.
        for pml, proto in self._retired_stacks:
            retired = 0
            reap = getattr(proto, "reap", None)
            if reap is not None:
                retired += reap() or 0
            retired += pml.reap() or 0
            reap_sites["retired_stack"] += retired
        fab = self.fabric
        # Sharded runs extend the closed side with the cross-shard relay:
        # an exported message left this fabric's custody (the destination
        # shard's import is a regular acquire there).  Serial runs export
        # nothing.
        closed = fab.frames_released + fab.frames_stranded + fab.frames_exported
        if fab.frames_acquired != closed:
            raise AssertionError(
                f"message arena leak: {fab.frames_acquired} acquired vs "
                f"{fab.frames_released} released + {fab.frames_stranded} stranded + "
                f"{fab.frames_exported} exported ({fab.frames_acquired - closed} unaccounted)"
            )
