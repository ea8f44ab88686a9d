"""Seeded fault campaigns with a machine-audited degradation taxonomy.

:func:`run_case` runs one protocol through one seeded fault mix — crashes,
rolling churn, false suspicions through the imperfect detector, and
network-level drop/duplication/delay/partition windows — under live
traffic, and classifies the run (:func:`repro.harness.sweep.run_sweep`
runs the matrix of them; ``sdr-mpi campaign`` is its preset):

``completed``
    every rank finished with the correct result and no fault left a
    measurable mark on the run;
``degraded``
    every rank finished correctly, but the protocol visibly absorbed
    faults on the way (failovers, resends, deduplicated copies, detector
    churn) — the replication value proposition, quantified;
``failed``
    a rank lost every replica, a finished rank returned a wrong result,
    or the run raised — replication was insufficient for this mix;
``deadlocked``
    live processes were still blocked at the horizon (a dropped frame
    with no retransmission path, an unhealed partition, an ack that
    never arrived).

Whatever the outcome, every run is **audited**: the zero-leak arena
balance (``acquired == released + stranded``) must hold, and every
counted strand must be attributed to a drop site.  An
audit failure is an invariant violation — recorded on the run and a
nonzero exit of the sweep — never folded into the degradation taxonomy.

Determinism: the fault mix is derived from the campaign seed alone
(:class:`repro.sim.rng.RngRegistry` streams), and the same seed drives
the job's network adversary and detector draws — one integer reproduces
the run, byte-identically, fingerprint and all.

Notes on the taxonomy's edges: the simulated transport is reliable by
assumption, so a *dropped* application or control frame has no
retransmission path — drop and partition windows push runs toward
``deadlocked`` by design (the taxonomy names the pathology instead of
hanging a test suite).  Duplication windows are absorbed by the
replicated protocols' per-channel dedup (``degraded``), while the native
stack has no filter and may double-deliver (``failed`` on a wrong
result).  See ``docs/fault_model.md``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Tuple

from repro.core.config import ReplicationConfig
from repro.core.membership import DetectorConfig
from repro.harness.faults import FaultSchedule
from repro.harness.runner import Job, JobShape, cluster_for
from repro.network.model import FaultPlan, LinkFaultWindow, PartitionWindow
from repro.scenarios import get_scenario
from repro.sim.rng import RngRegistry

__all__ = [
    "OUTCOMES",
    "CampaignConfig",
    "RunRecord",
    "RunMemo",
    "sample_faults",
    "run_case",
]

#: exhaustive degradation taxonomy — every run maps to exactly one
OUTCOMES: Tuple[str, ...] = ("completed", "degraded", "failed", "deadlocked")


@dataclass(frozen=True)
class CampaignConfig:
    """Shape of one campaign: workload size, horizon, fault-mix odds.

    The probabilities gate *whether* a fault class appears in a given
    seeded mix; the parameters of each appearing fault (victim, time,
    window intensity) are drawn from the same stream.  Crash-like faults
    are sampled exclusively (churn *or* a single crash), so a mix never
    violates the one-fail-stop-per-process rule.
    """

    n_ranks: int = 4
    degree: int = 2
    steps: int = 12
    #: workload name (a :mod:`repro.scenarios` registry entry) — a sweep
    #: axis since PR 7, resolved through the scenario registry since PR 9
    workload: str = "ring"
    #: virtual-seconds cap per run (wedged runs stop and audit here)
    horizon: float = 2e-3
    #: fault-time scale: faults are drawn inside [0, active], matched to
    #: the workload's busy period so the mix lands under live traffic
    active: float = 60e-6
    p_churn: float = 0.2
    p_crash: float = 0.35
    p_respawn: float = 0.5
    p_suspicion: float = 0.4
    p_drop_window: float = 0.15
    p_dup_window: float = 0.35
    p_delay_window: float = 0.35
    p_partition: float = 0.1
    detector: DetectorConfig = DetectorConfig(
        heartbeat_period=20e-6, timeout=30e-6, suspicion_threshold=2,
        notify_attempts=3, notify_backoff=5e-6, notify_drop_p=0.1,
    )


# ------------------------------------------------------------- fault mixes
def sample_faults(
    seed: int, cfg: CampaignConfig, protocol: str, respawnable: bool = True
) -> Tuple[FaultSchedule, Optional[FaultPlan], Dict[str, Any]]:
    """Deterministically derive one fault mix from *seed*.

    Returns the process-level schedule, the network-level plan (or None),
    and a human-readable summary of what was drawn.  Every draw comes
    from the dedicated ``campaign.faults`` stream, so the mix — like the
    run it shapes — is a pure function of the seed.

    *respawnable* gates the churn and respawn branches for workloads
    whose app factory cannot fork a replica from a recovery point (no
    ``state=`` kwarg).  The gate sits outside the draws, so mixes for
    respawn-capable workloads are unchanged and the non-respawnable
    variant stays a pure function of ``(seed, respawnable)``.
    """
    rng = RngRegistry(seed).stream("campaign.faults")
    degree = 1 if protocol == "native" else cfg.degree
    h = cfg.active
    sched = FaultSchedule()
    mix: Dict[str, Any] = {}
    # Worst-case crash-to-declaration lag of the campaign detector (the
    # schedule validator rejects respawns that precede declaration).
    det = cfg.detector
    declare_lag = (
        det.suspicion_threshold * det.heartbeat_period
        + det.timeout
        + (det.notify_attempts - 1) * det.notify_backoff
    )

    # Crash-like faults, sampled exclusively: rolling churn (sdr only —
    # respawns need the recovery manager) or a single replica crash.
    draw = rng.random()
    if protocol == "sdr" and degree == 2 and respawnable and draw < cfg.p_churn:
        first = int(rng.integers(cfg.n_ranks))
        ranks = [first, (first + 1) % cfg.n_ranks]
        churn = FaultSchedule.rolling_churn(
            ranks, start=0.2 * h, period=0.15 * h, downtime=declare_lag + 0.2 * h
        )
        sched.crashes.extend(churn.crashes)
        sched.respawns.extend(churn.respawns)
        mix["churn_ranks"] = ranks
    elif draw < cfg.p_churn + cfg.p_crash:
        rank = int(rng.integers(cfg.n_ranks))
        rep = int(rng.integers(degree))
        at = float(rng.uniform(0.15, 0.6)) * h
        sched.crash(rank, rep, at)
        mix["crash"] = (rank, rep, at)
        if protocol == "sdr" and degree == 2 and respawnable and rng.random() < cfg.p_respawn:
            sched.respawn(
                rank, det.declare_at(at) + declare_lag + float(rng.uniform(0.1, 0.3)) * h
            )
            mix["respawn"] = True

    # False suspicion through the imperfect detector (no-op on the proc
    # if it happens to be dead by then — that is a true positive).
    if degree > 1 and rng.random() < cfg.p_suspicion:
        rank = int(rng.integers(cfg.n_ranks))
        rep = int(rng.integers(degree))
        at = float(rng.uniform(0.1, 0.5)) * h
        clear = float(rng.uniform(0.1, 0.3)) * h
        sched.suspect(rank, rep, at, clear_after=clear)
        mix["suspicion"] = (rank, rep, at)

    # Network adversary windows.
    windows: List[LinkFaultWindow] = []
    if rng.random() < cfg.p_dup_window:
        start = float(rng.uniform(0.0, 0.4)) * h
        end = start + float(rng.uniform(0.1, 0.4)) * h
        windows.append(LinkFaultWindow(start, end, dup_p=float(rng.uniform(0.05, 0.3))))
        mix["dup_window"] = (start, end)
    if rng.random() < cfg.p_delay_window:
        start = float(rng.uniform(0.0, 0.5)) * h
        end = start + float(rng.uniform(0.1, 0.4)) * h
        windows.append(LinkFaultWindow(start, end, delay=float(rng.uniform(0.5, 3.0)) * 1e-6))
        mix["delay_window"] = (start, end)
    if rng.random() < cfg.p_drop_window:
        start = float(rng.uniform(0.1, 0.5)) * h
        end = start + float(rng.uniform(0.05, 0.2)) * h
        windows.append(LinkFaultWindow(start, end, drop_p=float(rng.uniform(0.02, 0.15))))
        mix["drop_window"] = (start, end)
    partitions: List[PartitionWindow] = []
    if rng.random() < cfg.p_partition:
        nodes = cluster_for(cfg.n_ranks, degree).nodes
        if nodes >= 2:
            start = float(rng.uniform(0.1, 0.5)) * h
            end = start + float(rng.uniform(0.05, 0.2)) * h
            half = nodes // 2
            partitions.append(
                PartitionWindow(
                    start, end,
                    groups=(tuple(range(half)), tuple(range(half, nodes))),
                )
            )
            mix["partition"] = (start, end)
    plan: Optional[FaultPlan] = None
    if windows or partitions:
        plan = FaultPlan(windows=tuple(windows), partitions=tuple(partitions))
    return sched, plan, mix


# ------------------------------------------------------------------- runs
@dataclass
class RunRecord:
    """One audited campaign run."""

    protocol: str
    seed: int
    outcome: str
    mix: Dict[str, Any]
    metrics: Dict[str, Any]
    stranded_by_site: Dict[str, Dict[str, int]]
    error: Optional[str] = None
    #: arena-balance / per-site-sum failure — fatal, never a taxonomy bucket
    invariant_error: Optional[str] = None
    fingerprint: str = ""

    def __post_init__(self) -> None:
        if self.outcome not in OUTCOMES:
            raise ValueError(f"outcome {self.outcome!r} not in {OUTCOMES}")


def _fingerprint(payload: Dict[str, Any]) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


class RunMemo:
    """The sweep executor's memo of runs proven blind to their seed, keyed
    ``(protocol, effective degree, CampaignConfig)`` — one entry per matrix
    cell at most.  :func:`run_case` stores a run only when the fault sampler
    drew nothing, the scenario binds seed-free and the run ended clean with
    every rng stream untouched: a pure function of the key (``docs/sweeps.md``)."""

    def __init__(self) -> None:
        self.runs: Dict[Tuple[str, int, CampaignConfig], RunRecord] = {}
        self.hits = 0

    def serve(self, key: Tuple[str, int, CampaignConfig], seed: int) -> Optional[RunRecord]:
        """The stored run re-labelled for *seed* (the field and the fingerprint's
        ``"seed"``, nothing else), or None; mutable fields are rebuilt from the
        fingerprint, so records share no state."""
        rec = self.runs.get(key)
        if rec is None:
            return None
        self.hits += 1
        payload = json.loads(rec.fingerprint)
        payload["seed"] = seed
        return replace(
            rec, seed=seed, mix={}, metrics=payload["metrics"],
            stranded_by_site=payload["sites"], fingerprint=_fingerprint(payload),
        )


def run_case(
    protocol: str,
    seed: int,
    cfg: Optional[CampaignConfig] = None,
    shape: Optional[JobShape] = None,
    memo: Optional[RunMemo] = None,
) -> RunRecord:
    """Run one seeded fault mix against *protocol* and audit the books.

    *shape* is an optional prebuilt :class:`JobShape` for this exact
    ``(protocol, degree, n_ranks)`` — the sweep executor's shape cache
    passes one so same-shape configs reuse the shared construction; the
    run is byte-identical with or without it (the cache only memoizes
    values that are pure functions of the shape).

    *memo* is the executor's :class:`RunMemo`; like *shape*, it cannot
    change the record, only whether a simulation is needed to produce it.
    """
    cfg = cfg or CampaignConfig()
    scenario = get_scenario(cfg.workload)  # raises ScenarioError (a ValueError)
    degree = 1 if protocol == "native" else cfg.degree
    scenario.check(cfg.n_ranks, degree)
    sched, plan, mix = sample_faults(seed, cfg, protocol, respawnable=scenario.supports_respawn)
    # Seed-blind so far: nothing sampled, and bind() will not read the seed.
    nothing_sampled = not mix and plan is None and sched == FaultSchedule()
    blind = memo is not None and nothing_sampled and scenario.seed_free_binding
    key = (protocol, degree, cfg)
    if blind:
        served = memo.serve(key, seed)
        if served is not None:
            return served
    bound = scenario.bind(cfg, seed)
    rcfg = ReplicationConfig(degree=degree, protocol=protocol)
    if shape is None:
        shape = JobShape.build(cfg.n_ranks, rcfg, cluster_for(cfg.n_ranks, degree))
    job = Job(
        cfg.n_ranks,
        cfg=rcfg,
        seed=seed,
        detector=cfg.detector,
        fault_plan=plan,
        shape=shape,
        traffic=bound.traffic,
    )
    job.launch(bound.factory, **bound.kwargs)
    sched.apply(job, horizon=cfg.horizon)

    outcome: Optional[str] = None
    error: Optional[str] = None
    invariant_error: Optional[str] = None
    res = None
    try:
        res = job.run(until=cfg.horizon, allow_lost_ranks=True, audit=False)
    except AssertionError as exc:  # raised in a process, re-raised by JobResult.merge
        invariant_error = str(exc)
        outcome = "failed"
        error = f"{type(exc).__name__}: {exc}"
    except Exception as exc:
        error = f"{type(exc).__name__}: {exc}"
        outcome = "failed"
    # Blocked-process census before the audit abandons the stacks.
    unfinished = sorted(
        p for p, proc in job.processes.items() if proc.alive and p not in job.finish_times
    )
    try:
        job.audit()
    except AssertionError as exc:
        invariant_error = (invariant_error + "\n" if invariant_error else "") + str(exc)

    # Every counted strand is attributed to one site: a wire strand adds a
    # frame (and an envelope unless it is a svc notice), a pipeline strand
    # only an envelope, so each fabric site's larger column is its count.
    sites = job._strand_attribution()
    fstats = job.fabric.stats()
    attributed = sum(map(max, job.fabric.strands_by_site.values()))
    if attributed != fstats["frames_stranded"]:
        invariant_error = (invariant_error + "\n" if invariant_error else "") + (
            f"per-site strand sum {attributed} != frames_stranded {fstats['frames_stranded']}"
        )

    membership = job.membership
    protos = list(job.protocols.values())
    metrics: Dict[str, Any] = {
        "runtime": res.runtime if res is not None else job.sim.now,
        "events": job.sim.events_dispatched,
        "crashes": len(membership.failed),
        "false_suspicions": len(membership.false_suspicions),
        "detection_latency_max": max(membership.detection_latency.values(), default=0.0),
        "notify_drops": membership.notify_drops,
        "fault_drops": fstats["fault_drops"],
        "fault_dups": fstats["fault_dups"],
        "fault_delays": fstats["fault_delays"],
        "duplicates_dropped": sum(getattr(p, "duplicates_dropped", 0) for p in protos),
        "resends": sum(getattr(p, "resends", 0) for p in protos),
        "speculative_failovers": sum(getattr(p, "speculative_failovers", 0) for p in protos),
        "stranded_frames": sum(cell["frames"] for cell in sites.values()),
        "stranded_envs": sum(cell["envs"] for cell in sites.values()),
        "unfinished": len(unfinished),
        "lost_ranks": sorted(membership.lost_ranks),
    }
    if bound.traffic is not None:
        # Traffic runs surface request accounting in the fingerprint; the
        # keys appear only when traffic is active, so closed-loop
        # fingerprints stay byte-identical to their pre-traffic goldens.
        metrics.update(bound.traffic.totals())
        try:
            bound.traffic.audit()
        except AssertionError as exc:
            invariant_error = (invariant_error + "\n" if invariant_error else "") + str(exc)

    if outcome is None:
        expected = bound.expected
        results = res.app_results if res is not None else {}
        wrong = [
            p for p, val in results.items() if val != expected[job.rmap.rank_of(p)]
        ]
        if metrics["lost_ranks"] or wrong:
            outcome = "failed"
            if wrong:
                error = f"wrong results from procs {sorted(wrong)}"
        elif unfinished:
            outcome = "deadlocked"
            waits = (f"  {name}: {what}" for name, what in sorted(job.blocked.items()))
            error = "\n".join(["deadlocked: processes blocked at the horizon:", *waits])
        elif (
            metrics["crashes"]
            or metrics["false_suspicions"]
            or metrics["fault_drops"]
            or metrics["fault_dups"]
            or metrics["fault_delays"]
            or metrics["notify_drops"]
        ):
            outcome = "degraded"
        else:
            outcome = "completed"

    fingerprint = _fingerprint(
        {
            "protocol": protocol,
            "seed": seed,
            "outcome": outcome,
            "metrics": metrics,
            "sites": sites,
            "frames": fstats["total_frames"],
            "bytes": fstats["total_bytes"],
        }
    )
    rec = RunRecord(
        protocol=protocol,
        seed=seed,
        outcome=outcome,
        mix=mix,
        metrics=metrics,
        stranded_by_site=sites,
        error=error,
        invariant_error=invariant_error,
        fingerprint=fingerprint,
    )
    # ...and seed-blind to the end: no stream drew, nothing went wrong.
    if blind and error is None and invariant_error is None and job.rng.untouched():
        memo.runs[key] = rec
    return rec
