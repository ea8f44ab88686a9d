"""Fault schedules for fault-injection experiments and campaigns.

The paper's Fig. 3 scenario (replica p¹₁ crashes mid-run, its substitute
p⁰₁ takes over sending duties) and Fig. 4 (subsequent respawn) are driven
from here.  Times are virtual seconds.

Beyond the single scripted crash, a :class:`FaultSchedule` composes:

* replica-level crashes (:class:`CrashSpec`),
* **node-level crashes** (:class:`NodeCrashSpec`) that take every
  co-located replica down at once — the correlated-failure shape the
  paper's disjoint-node-halves placement (§4.2) exists to survive,
* **false suspicions** (:class:`SuspicionSpec`) delivered through the
  imperfect detector (requires ``Job(detector=...)``),
* **respawns** (:class:`RespawnSpec`) driven through
  :class:`repro.core.recovery.RecoveryManager`, so crash+respawn pairs
  compose into rolling churn waves (:meth:`FaultSchedule.rolling_churn`)
  and cascades (:meth:`FaultSchedule.cascade`).

Every schedule validates at build/apply time — a duplicate crash of the
same ``(rank, rep)``, a negative or post-horizon time, a crash, suspicion
or respawn of a rank or replica outside the job, or a respawn that
precedes every crash of its rank raises :class:`FaultScheduleError`
instead of producing a silently weird run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.recovery import RecoveryManager
    from repro.harness.runner import Job

__all__ = [
    "CrashSpec",
    "NodeCrashSpec",
    "RespawnSpec",
    "SuspicionSpec",
    "FaultSchedule",
    "FaultScheduleError",
]


class FaultScheduleError(ValueError):
    """A fault schedule that cannot mean anything sensible — caught before
    the simulation runs, naming the offending spec."""


@dataclass(frozen=True)
class CrashSpec:
    """One fail-stop crash: replica *rep* of logical *rank* at time *at*."""

    rank: int
    rep: int
    at: float


@dataclass(frozen=True)
class NodeCrashSpec:
    """Fail-stop of a whole node at time *at*: every process placed on it
    crashes together (correlated failure — co-located replicas die as one).
    Expanded against the job's placement at apply time."""

    node: int
    at: float


@dataclass(frozen=True)
class RespawnSpec:
    """Request a respawn of *rank*'s dead replica at time *at* (honoured at
    the application's next recovery point, §3.4)."""

    rank: int
    at: float


@dataclass(frozen=True)
class SuspicionSpec:
    """False positive from the imperfect detector: replica *rep* of *rank*
    is reported suspect at *at* and — unless ``clear_after`` is None —
    cleared ``clear_after`` seconds later."""

    rank: int
    rep: int
    at: float
    clear_after: Optional[float] = None


def _check_time(at: float, horizon: Optional[float], what: str) -> None:
    if at < 0.0:
        raise FaultScheduleError(f"{what} scheduled at negative time {at}")
    if horizon is not None and at >= horizon:
        raise FaultScheduleError(
            f"{what} scheduled at {at}, at or past the campaign horizon {horizon} "
            "(it would never fire)"
        )


@dataclass
class FaultSchedule:
    """A composed fault scenario: crashes, node losses, suspicions, respawns.

    ``validate`` runs the static checks (no placement needed);
    :meth:`apply` re-validates, expands node crashes against the job's
    placement (checking the correlated kills collide with nothing), and
    wires every spec into the job's clock.
    """

    crashes: List[CrashSpec] = field(default_factory=list)
    node_crashes: List[NodeCrashSpec] = field(default_factory=list)
    suspicions: List[SuspicionSpec] = field(default_factory=list)
    respawns: List[RespawnSpec] = field(default_factory=list)

    # ------------------------------------------------------------- builders
    def crash(self, rank: int, rep: int, at: float) -> "FaultSchedule":
        self.crashes.append(CrashSpec(rank, rep, at))
        return self

    def crash_node(self, node: int, at: float) -> "FaultSchedule":
        self.node_crashes.append(NodeCrashSpec(node, at))
        return self

    def suspect(self, rank: int, rep: int, at: float, clear_after: Optional[float] = None) -> "FaultSchedule":
        self.suspicions.append(SuspicionSpec(rank, rep, at, clear_after))
        return self

    def respawn(self, rank: int, at: float) -> "FaultSchedule":
        self.respawns.append(RespawnSpec(rank, at))
        return self

    @classmethod
    def rolling_churn(
        cls,
        ranks: Iterable[int],
        start: float,
        period: float,
        downtime: float,
        rep: int = 1,
    ) -> "FaultSchedule":
        """Rolling crash+respawn wave: rank *i* in *ranks* loses replica
        *rep* at ``start + i·period`` and a respawn is requested
        ``downtime`` later — membership churn under live traffic."""
        if period <= 0.0 or downtime <= 0.0:
            raise FaultScheduleError(
                f"rolling churn needs positive period/downtime, got {period}/{downtime}"
            )
        sched = cls()
        for i, rank in enumerate(ranks):
            at = start + i * period
            sched.crash(rank, rep, at)
            sched.respawn(rank, at + downtime)
        return sched

    @classmethod
    def cascade(cls, nodes: Iterable[int], start: float, gap: float) -> "FaultSchedule":
        """Cascading node failures: each node in *nodes* fails *gap* after
        the previous one (correlated loss spreading through the system)."""
        if gap <= 0.0:
            raise FaultScheduleError(f"cascade needs a positive gap, got {gap}")
        sched = cls()
        for i, node in enumerate(nodes):
            sched.crash_node(node, start + i * gap)
        return sched

    # ----------------------------------------------------------- validation
    def validate(self, horizon: Optional[float] = None) -> "FaultSchedule":
        seen = set()
        for spec in self.crashes:
            _check_time(spec.at, horizon, f"crash of ({spec.rank}, {spec.rep})")
            key = (spec.rank, spec.rep)
            if key in seen:
                raise FaultScheduleError(
                    f"duplicate crash of (rank={spec.rank}, rep={spec.rep}): "
                    "a fail-stop process dies exactly once"
                )
            seen.add(key)
        node_seen = set()
        for nspec in self.node_crashes:
            _check_time(nspec.at, horizon, f"crash of node {nspec.node}")
            if nspec.node in node_seen:
                raise FaultScheduleError(f"duplicate crash of node {nspec.node}")
            node_seen.add(nspec.node)
        for sspec in self.suspicions:
            _check_time(sspec.at, horizon, f"suspicion of ({sspec.rank}, {sspec.rep})")
            if sspec.clear_after is not None and sspec.clear_after <= 0.0:
                raise FaultScheduleError(
                    f"suspicion of ({sspec.rank}, {sspec.rep}) clears after "
                    f"{sspec.clear_after} — must be positive (or None to never clear)"
                )
        crash_time_by_rank: dict = {}
        for spec in self.crashes:
            t = crash_time_by_rank.get(spec.rank)
            crash_time_by_rank[spec.rank] = spec.at if t is None else min(t, spec.at)
        for rspec in self.respawns:
            _check_time(rspec.at, horizon, f"respawn of rank {rspec.rank}")
            first_crash = crash_time_by_rank.get(rspec.rank)
            if first_crash is None and not self.node_crashes:
                raise FaultScheduleError(
                    f"respawn of rank {rspec.rank} at {rspec.at}: no crash of that "
                    "rank anywhere in the schedule"
                )
            if first_crash is not None and rspec.at <= first_crash:
                raise FaultScheduleError(
                    f"respawn of rank {rspec.rank} at {rspec.at} precedes its first "
                    f"crash at {first_crash} (respawn-before-crash)"
                )
        return self

    # ---------------------------------------------------------- application
    def apply(
        self,
        job: "Job",
        horizon: Optional[float] = None,
        recovery: Optional["RecoveryManager"] = None,
    ) -> "Job":
        """Validate against *job* and wire every spec into its clock.

        Node crashes are expanded against the job's placement here (the
        only point a placement exists); the expansion is checked against
        the replica-level crashes so one process is never killed twice.
        Suspicions require the job to run an imperfect detector; respawns
        require a :class:`RecoveryManager` (pass one in, or one is built —
        which itself validates protocol support).
        """
        self.validate(horizon)
        rmap = job.rmap
        placement = job.placement
        n_ranks, degree = rmap.n_ranks, rmap.degree
        outside = f"outside the job ({n_ranks} ranks × degree {degree})"
        for spec in self.crashes:
            if not (0 <= spec.rank < n_ranks and 0 <= spec.rep < degree):
                raise FaultScheduleError(f"crash of (rank={spec.rank}, rep={spec.rep}) {outside}")
        for sspec in self.suspicions:
            if not (0 <= sspec.rank < n_ranks and 0 <= sspec.rep < degree):
                raise FaultScheduleError(f"suspicion of (rank={sspec.rank}, rep={sspec.rep}) {outside}")
        for rspec in self.respawns:
            if not 0 <= rspec.rank < n_ranks:
                raise FaultScheduleError(f"respawn of rank {rspec.rank} {outside}")
        crashed_procs = {}
        for spec in self.crashes:
            crashed_procs[rmap.phys(spec.rank, spec.rep)] = spec
            job.crash(spec.rank, spec.rep, at=spec.at)
        for nspec in self.node_crashes:
            if not 0 <= nspec.node < job.cluster.nodes:
                raise FaultScheduleError(
                    f"crash of node {nspec.node}: cluster has {job.cluster.nodes} nodes"
                )
            victims = [p for p in range(rmap.n_procs) if placement.node_of(p) == nspec.node]
            for proc in victims:
                prior = crashed_procs.get(proc)
                if prior is not None:
                    raise FaultScheduleError(
                        f"node {nspec.node} crash at {nspec.at} kills proc {proc} "
                        f"already crashed by {prior}"
                    )
                crashed_procs[proc] = nspec
                rank, rep = rmap.pair(proc)
                job.crash(rank, rep, at=nspec.at)
        if self.suspicions:
            if job.membership.detector is None:
                raise FaultScheduleError(
                    "suspicion specs require an imperfect detector "
                    "(Job(detector=DetectorConfig(...)))"
                )
            for sspec in self.suspicions:
                proc = rmap.phys(sspec.rank, sspec.rep)
                job.sim.call_at(
                    sspec.at,
                    lambda proc=proc, clear=sspec.clear_after: job.membership.inject_suspicion(
                        proc, clear_after=clear
                    ),
                )
        if self.respawns:
            detector = job.membership.detector
            if detector is not None:
                # With the imperfect detector, a crash is declared only
                # after missed heartbeats + timeout (+ notification
                # retries).  A respawn that lands before the declaration
                # revives the slot first, and the stale declaration then
                # condemns the live, respawned process — peers fail over
                # away from a healthy replica and the run wedges.  Reject
                # the schedule instead of producing that silently weird
                # run: respawn requests must follow failure declaration.
                notify_lag = (detector.notify_attempts - 1) * detector.notify_backoff
                for rspec in self.respawns:
                    for spec in self.crashes:
                        if spec.rank != rspec.rank or spec.at > rspec.at:
                            continue
                        declared = detector.declare_at(spec.at) + notify_lag
                        if rspec.at < declared:
                            raise FaultScheduleError(
                                f"respawn of rank {rspec.rank} at {rspec.at} precedes "
                                f"the detector's declaration of its crash at {spec.at} "
                                f"(declared by {declared}): respawn requests must "
                                "follow failure declaration"
                            )
            if recovery is None:
                from repro.core.recovery import RecoveryManager

                recovery = RecoveryManager(job)
            for rspec in self.respawns:
                job.sim.call_at(
                    rspec.at, lambda rank=rspec.rank: recovery.request_respawn(rank)
                )
        return job

    def __len__(self) -> int:
        return (
            len(self.crashes)
            + len(self.node_crashes)
            + len(self.suspicions)
            + len(self.respawns)
        )
