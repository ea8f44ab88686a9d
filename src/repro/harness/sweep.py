"""Sweep orchestrator: from one Job to thousands of audited configurations.

The one runner of audited fault experiments: every config runs through
:func:`~repro.harness.campaign.run_case`, and ``sdr-mpi campaign`` is the
matrix at its default axes (N seeds × the five protocols at a fixed
shape).  A *sweep* is a validated config matrix over every axis the
paper's claims compare —

====================  =====================================================
axis                  values
====================  =====================================================
``protocols``         any of ``native/sdr/mirror/leader/redmpi``
``degrees``           replication degree *r* (native always runs r=1 and
                      is emitted once, not once per degree)
``ranks``             logical world sizes
``workloads``         :mod:`repro.scenarios` registry names — every
                      ``(workload, ranks)`` pair is checked against the
                      scenario's rank envelope when the matrix is built
``mixes``             named fault-mix profiles (:data:`MIX_PROFILES`)
``detectors``         named failure-detector configs (:data:`DETECTOR_PROFILES`)
``intensities``       adversary intensity: scales the network fault-window
                      probabilities of the mix (1.0 = the mix as named)
``seeds``             campaign seeds — one integer reproduces one run
====================  =====================================================

Non-cartesian matrices come from :meth:`SweepSpec.explicit`: a literal
list of configs, validated entry-by-entry at build time, with config
indices fixed by list order.

— executed serially or on a :class:`~repro.sim.pool.Pool` of workers,
streamed to a :class:`~repro.harness.store.SweepStore`, and rendered as
paper-style tables.  Like :class:`~repro.harness.faults.FaultSchedule`,
the matrix is validated when it is built (:class:`SweepError` names the
bad axis), not when config #1731 finally executes.

Determinism contract: every config's fingerprint is **byte-identical**
whether the sweep runs serially or on N workers, warm cache or cold —
each worker's :class:`ShapeCache` only reuses construction that is a pure
function of ``(protocol, degree, n_ranks)`` (shared world, cost table,
protocol-shared template — the PR 5 flyweights), with hit/miss
accounting so the reuse is observable, and its ``RunMemo`` only re-labels
a run proven blind to its seed (``docs/sweeps.md``).  The pool deals
whole memo cells, so a worker's memo serves what the serial one would.
Every run is audited by ``run_case`` (``acquired == released +
stranded``); an invariant violation is a nonzero sweep exit, never a
taxonomy bucket.  A worker that *dies* (``kill -9``, OOM kill, segfault)
costs the config it was running, recorded ``failed`` with the exit code,
and a replacement finishes its cell — a sweep never hangs on a lost worker.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from itertools import product
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.config import PROTOCOLS, ReplicationConfig
from repro.core.membership import DetectorConfig
from repro.harness.campaign import (
    OUTCOMES,
    CampaignConfig,
    RunMemo,
    RunRecord,
    run_case,
)
from repro.harness.report import (
    render_table,
    strand_site_rows,
    sweep_group_label,
    sweep_outcome_rows,
    traffic_rows,
)
from repro.harness.runner import JobShape, cluster_for
from repro.harness.store import SweepStore
from repro.scenarios import ScenarioError, get_scenario, scenario_names
from repro.sim.pool import Pool, WorkerDied

__all__ = [
    "MIX_PROFILES",
    "DETECTOR_PROFILES",
    "SweepError",
    "SweepSpec",
    "SweepPoint",
    "ShapeCache",
    "SweepResult",
    "run_sweep",
    "verify_sample",
    "render_sweep_report",
]

_NO_FAULTS: Dict[str, float] = {
    "p_churn": 0.0, "p_crash": 0.0, "p_respawn": 0.0, "p_suspicion": 0.0,
    "p_drop_window": 0.0, "p_dup_window": 0.0, "p_delay_window": 0.0,
    "p_partition": 0.0,
}

#: named fault-mix profiles — the ``mixes`` axis.  Each maps to the
#: :class:`CampaignConfig` probability overrides that gate which fault
#: classes a seeded mix may draw (the draws themselves stay a pure
#: function of the seed; see ``sample_faults``).
MIX_PROFILES: Dict[str, Dict[str, float]] = {
    #: no faults at all — the correctness/throughput floor
    "clean": dict(_NO_FAULTS),
    #: process-level only: crashes, churn, respawns
    "crash": {**_NO_FAULTS, "p_churn": 0.2, "p_crash": 0.5, "p_respawn": 0.5},
    #: wire-level only: drop/dup/delay windows and healing partitions
    "network": {
        **_NO_FAULTS,
        "p_drop_window": 0.25, "p_dup_window": 0.5, "p_delay_window": 0.5,
        "p_partition": 0.15,
    },
    #: everything at the PR 6 campaign odds (CampaignConfig defaults)
    "full": {},
}

#: named failure-detector configurations — the ``detectors`` axis.
#: ``default`` is byte-identical to the campaign detector, so sweeps that
#: never name the axis reproduce their pre-axis fingerprints.
DETECTOR_PROFILES: Dict[str, DetectorConfig] = {
    "default": DetectorConfig(
        heartbeat_period=20e-6, timeout=30e-6, suspicion_threshold=2,
        notify_attempts=3, notify_backoff=5e-6, notify_drop_p=0.1,
    ),
    #: half the heartbeat/timeout, single-miss suspicion — fast but jumpy
    "eager": DetectorConfig(
        heartbeat_period=10e-6, timeout=15e-6, suspicion_threshold=1,
        notify_attempts=3, notify_backoff=5e-6, notify_drop_p=0.1,
    ),
    #: slow declaration, three-miss threshold — high latency, few false positives
    "conservative": DetectorConfig(
        heartbeat_period=30e-6, timeout=60e-6, suspicion_threshold=3,
        notify_attempts=3, notify_backoff=5e-6, notify_drop_p=0.1,
    ),
    #: default timing but a hostile notification path (40% drop, 2 attempts)
    "lossy-notify": DetectorConfig(
        heartbeat_period=20e-6, timeout=30e-6, suspicion_threshold=2,
        notify_attempts=2, notify_backoff=5e-6, notify_drop_p=0.4,
    ),
}

#: the CampaignConfig probabilities the ``intensities`` axis scales —
#: wire-level adversary knobs only; crash/churn odds stay the mix's own
_NETWORK_PROBS: Tuple[str, ...] = (
    "p_drop_window", "p_dup_window", "p_delay_window", "p_partition",
)

_DEFAULT_CFG = CampaignConfig()


class SweepError(ValueError):
    """Invalid sweep matrix — raised at build time, naming the bad axis."""


@dataclass(frozen=True)
class SweepPoint:
    """One fully-resolved configuration of the matrix."""

    index: int
    protocol: str
    degree: int
    n_ranks: int
    workload: str
    mix: str
    seed: int
    steps: int = 12
    horizon: float = 2e-3
    active: float = 60e-6
    detector: str = "default"
    intensity: float = 1.0

    @property
    def effective_degree(self) -> int:
        return 1 if self.protocol == "native" else self.degree

    def label(self) -> str:
        base = (
            f"{self.protocol}/r{self.effective_degree}/n{self.n_ranks}"
            f"/{self.workload}/{self.mix}"
        )
        # detector/intensity segments appear only off their defaults, so
        # pre-axis labels (pinned by tests and report consumers) survive
        if self.detector != "default":
            base += f"/{self.detector}"
        if self.intensity != 1.0:
            base += f"/x{self.intensity:g}"
        return f"{base}/s{self.seed}"

    def campaign_config(self) -> CampaignConfig:
        overrides: Dict[str, Any] = dict(MIX_PROFILES[self.mix])
        if self.intensity != 1.0:
            for key in _NETWORK_PROBS:
                p = overrides.get(key, getattr(_DEFAULT_CFG, key))
                overrides[key] = min(1.0, p * self.intensity)
        if self.detector != "default":
            overrides["detector"] = DETECTOR_PROFILES[self.detector]
        return CampaignConfig(
            n_ranks=self.n_ranks,
            degree=self.degree,
            steps=self.steps,
            workload=self.workload,
            horizon=self.horizon,
            active=self.active,
            **overrides,
        )


def _check_axis(name: str, values: Sequence[Any], kind: type, minimum: int) -> None:
    if not values:
        raise SweepError(f"axis {name!r} is empty — nothing to sweep")
    for v in values:
        if not isinstance(v, kind) or isinstance(v, bool):
            raise SweepError(f"axis {name!r}: {v!r} is not {kind.__name__}")
        if kind is int and v < minimum:
            raise SweepError(f"axis {name!r}: {v} is below the minimum {minimum}")
    if len(set(values)) != len(values):
        raise SweepError(f"axis {name!r} has duplicate values: {list(values)}")


@dataclass(frozen=True)
class SweepSpec:
    """A validated config matrix.

    The default mode is the cartesian product of the explicit-list axes;
    :meth:`explicit` builds the non-cartesian variant (a literal list of
    configs with indices fixed by list order).  Either way, the whole
    matrix is validated when it is built.
    """

    protocols: Tuple[str, ...] = PROTOCOLS
    degrees: Tuple[int, ...] = (2,)
    ranks: Tuple[int, ...] = (4,)
    workloads: Tuple[str, ...] = ("ring",)
    mixes: Tuple[str, ...] = ("full",)
    detectors: Tuple[str, ...] = ("default",)
    intensities: Tuple[float, ...] = (1.0,)
    seeds: Tuple[int, ...] = (0, 1, 2)
    steps: int = 12
    horizon: float = 2e-3
    active: float = 60e-6
    #: non-cartesian mode: when set, this literal config list *is* the
    #: matrix and the axis tuples above are ignored for enumeration
    configs: Optional[Tuple[SweepPoint, ...]] = None

    def __post_init__(self) -> None:
        # Normalize every axis (ranges, lists, generators) to a tuple so the
        # spec is hashable, picklable, and iterable more than once.
        for axis in (
            "protocols", "degrees", "ranks", "workloads",
            "mixes", "detectors", "intensities", "seeds",
        ):
            object.__setattr__(self, axis, tuple(getattr(self, axis)))
        if self.configs is not None:
            object.__setattr__(self, "configs", tuple(self.configs))

    @classmethod
    def explicit(
        cls,
        entries: Sequence[Dict[str, Any]],
        steps: int = 12,
        horizon: float = 2e-3,
        active: float = 60e-6,
    ) -> "SweepSpec":
        """Build a non-cartesian matrix from a literal list of configs.

        Each entry is a dict with the per-config keys (``protocol``,
        ``n_ranks``, ``seed`` required; ``degree``/``workload``/``mix``/
        ``detector``/``intensity`` defaulted like the cartesian axes).
        Config indices are the list positions — stable across runs, so a
        stored sweep and its re-execution agree on ``config #17``.  The
        whole list is validated here, at build time.
        """
        if not entries:
            raise SweepError("explicit matrix is empty — nothing to sweep")
        allowed = {
            "protocol", "degree", "n_ranks", "workload",
            "mix", "seed", "detector", "intensity",
        }
        points: List[SweepPoint] = []
        for i, entry in enumerate(entries):
            if not isinstance(entry, dict):
                raise SweepError(f"explicit config #{i}: expected a dict, got {entry!r}")
            unknown = set(entry) - allowed
            if unknown:
                raise SweepError(
                    f"explicit config #{i}: unknown keys {sorted(unknown)}; "
                    f"have {sorted(allowed)}"
                )
            missing = {"protocol", "n_ranks", "seed"} - set(entry)
            if missing:
                raise SweepError(
                    f"explicit config #{i}: missing required keys {sorted(missing)}"
                )
            points.append(
                SweepPoint(
                    index=i,
                    protocol=entry["protocol"],
                    degree=entry.get("degree", 2),
                    n_ranks=entry["n_ranks"],
                    workload=entry.get("workload", "ring"),
                    mix=entry.get("mix", "full"),
                    seed=entry["seed"],
                    steps=steps,
                    horizon=horizon,
                    active=active,
                    detector=entry.get("detector", "default"),
                    intensity=entry.get("intensity", 1.0),
                )
            )
        spec = cls(
            protocols=tuple(dict.fromkeys(p.protocol for p in points)),
            degrees=tuple(sorted({p.degree for p in points})),
            ranks=tuple(sorted({p.n_ranks for p in points})),
            workloads=tuple(dict.fromkeys(p.workload for p in points)),
            mixes=tuple(dict.fromkeys(p.mix for p in points)),
            detectors=tuple(dict.fromkeys(p.detector for p in points)),
            intensities=tuple(dict.fromkeys(p.intensity for p in points)),
            seeds=tuple(dict.fromkeys(p.seed for p in points)),
            steps=steps,
            horizon=horizon,
            active=active,
            configs=tuple(points),
        )
        return spec.validate()

    def _check_workload_envelopes(self) -> None:
        """Every (workload, ranks, degree) combination the matrix will
        emit must satisfy the scenario's envelope — checked here, at
        build time, like every other axis."""
        for w in self.workloads:
            try:
                scenario = get_scenario(w)
            except ScenarioError:
                raise SweepError(
                    f"axis 'workloads': unknown {w!r}; have {scenario_names()}"
                ) from None
            for n in self.ranks:
                for protocol in self.protocols:
                    for degree in self.degrees:
                        eff = 1 if protocol == "native" else degree
                        try:
                            scenario.check(n, eff)
                        except ScenarioError as exc:
                            raise SweepError(
                                f"axis 'workloads': {w!r} cannot run at "
                                f"n_ranks={n}: {exc}"
                            ) from None

    def _validate_explicit(self) -> "SweepSpec":
        """Entry-by-entry validation of a non-cartesian matrix.  Checked
        per config, not per derived axis union — an explicit list may
        legally pair ``mg`` at 8 ranks with ``ring`` at 4."""
        assert self.configs is not None
        for i, point in enumerate(self.configs):
            where = f"explicit config #{i}"
            if point.index != i:
                raise SweepError(
                    f"{where}: index {point.index} does not match its list position"
                )
            if point.protocol not in PROTOCOLS:
                raise SweepError(
                    f"{where}: unknown protocol {point.protocol!r}; have {PROTOCOLS}"
                )
            if not isinstance(point.degree, int) or isinstance(point.degree, bool):
                raise SweepError(f"{where}: degree {point.degree!r} is not int")
            if point.protocol != "native" and point.degree < 2:
                raise SweepError(
                    f"{where}: degree {point.degree} is below the minimum 2"
                )
            if not isinstance(point.n_ranks, int) or point.n_ranks < 2:
                raise SweepError(
                    f"{where}: n_ranks {point.n_ranks!r} is below the minimum 2"
                )
            if point.mix not in MIX_PROFILES:
                raise SweepError(
                    f"{where}: unknown mix {point.mix!r}; have {sorted(MIX_PROFILES)}"
                )
            if point.detector not in DETECTOR_PROFILES:
                raise SweepError(
                    f"{where}: unknown detector {point.detector!r}; "
                    f"have {sorted(DETECTOR_PROFILES)}"
                )
            if isinstance(point.intensity, bool) or not isinstance(
                point.intensity, (int, float)
            ) or not point.intensity > 0:
                raise SweepError(f"{where}: intensity {point.intensity!r} must be > 0")
            if not isinstance(point.seed, int) or isinstance(point.seed, bool) or point.seed < 0:
                raise SweepError(f"{where}: seed {point.seed!r} must be an int >= 0")
            try:
                scenario = get_scenario(point.workload)
            except ScenarioError:
                raise SweepError(
                    f"{where}: unknown workload {point.workload!r}; "
                    f"have {scenario_names()}"
                ) from None
            try:
                scenario.check(point.n_ranks, point.effective_degree)
            except ScenarioError as exc:
                raise SweepError(f"{where}: {exc}") from None
        return self

    def validate(self) -> "SweepSpec":
        """Full build-time validation; returns self for chaining."""
        if self.steps < 1:
            raise SweepError(f"steps must be >= 1, got {self.steps}")
        if not (0 < self.active <= self.horizon):
            raise SweepError(
                f"need 0 < active <= horizon, got active={self.active} "
                f"horizon={self.horizon}"
            )
        if self.configs is not None:
            return self._validate_explicit()
        _check_axis("protocols", self.protocols, str, 0)
        for p in self.protocols:
            if p not in PROTOCOLS:
                raise SweepError(f"axis 'protocols': unknown {p!r}; have {PROTOCOLS}")
        replicated = [p for p in self.protocols if p != "native"]
        _check_axis("degrees", self.degrees, int, 2 if replicated else 1)
        _check_axis("ranks", self.ranks, int, 2)
        _check_axis("workloads", self.workloads, str, 0)
        _check_axis("mixes", self.mixes, str, 0)
        for m in self.mixes:
            if m not in MIX_PROFILES:
                raise SweepError(
                    f"axis 'mixes': unknown {m!r}; have {sorted(MIX_PROFILES)}"
                )
        _check_axis("detectors", self.detectors, str, 0)
        for d in self.detectors:
            if d not in DETECTOR_PROFILES:
                raise SweepError(
                    f"axis 'detectors': unknown {d!r}; have {sorted(DETECTOR_PROFILES)}"
                )
        if not self.intensities:
            raise SweepError("axis 'intensities' is empty — nothing to sweep")
        for x in self.intensities:
            if isinstance(x, bool) or not isinstance(x, (int, float)):
                raise SweepError(f"axis 'intensities': {x!r} is not a number")
            if not x > 0:
                raise SweepError(f"axis 'intensities': {x} must be > 0")
        if len(set(self.intensities)) != len(self.intensities):
            raise SweepError(
                f"axis 'intensities' has duplicate values: {list(self.intensities)}"
            )
        _check_axis("seeds", self.seeds, int, 0)
        self._check_workload_envelopes()
        return self

    @property
    def n_configs(self) -> int:
        return len(self.points())

    def points(self) -> List[SweepPoint]:
        """The matrix, enumerated in deterministic axis-major order (or,
        for an explicit spec, in list order).

        ``native`` ignores the degree axis (it always runs r=1), so it is
        emitted once per (ranks, workload, mix, detector, intensity, seed)
        combination instead of once per degree — a sweep never wastes runs
        on duplicate configs that would fingerprint identically.
        """
        self.validate()
        if self.configs is not None:
            return list(self.configs)
        points: List[SweepPoint] = []
        for protocol, degree, n_ranks, workload, mix, detector, intensity, seed in product(
            self.protocols, self.degrees, self.ranks, self.workloads,
            self.mixes, self.detectors, self.intensities, self.seeds,
        ):
            if protocol == "native" and degree != self.degrees[0]:
                continue
            points.append(
                SweepPoint(
                    index=len(points),
                    protocol=protocol,
                    degree=degree,
                    n_ranks=n_ranks,
                    workload=workload,
                    mix=mix,
                    seed=seed,
                    steps=self.steps,
                    horizon=self.horizon,
                    active=self.active,
                    detector=detector,
                    intensity=intensity,
                )
            )
        return points

    def as_dict(self) -> Dict[str, Any]:
        out = {
            "protocols": list(self.protocols),
            "degrees": list(self.degrees),
            "ranks": list(self.ranks),
            "workloads": list(self.workloads),
            "mixes": list(self.mixes),
            "detectors": list(self.detectors),
            "intensities": list(self.intensities),
            "seeds": list(self.seeds),
            "steps": self.steps,
            "horizon": self.horizon,
            "active": self.active,
        }
        if self.configs is not None:
            out["explicit"] = [
                {
                    "protocol": p.protocol, "degree": p.degree,
                    "n_ranks": p.n_ranks, "workload": p.workload,
                    "mix": p.mix, "seed": p.seed,
                    "detector": p.detector, "intensity": p.intensity,
                }
                for p in self.configs
            ]
        return out


# ---------------------------------------------------------------- execution
class ShapeCache:
    """Per-executor cache of :class:`JobShape` keyed by
    ``(protocol, effective degree, n_ranks)``.

    Every worker process holds one: the first config of a shape pays the
    construction (miss), every later same-shape config reuses it (hit).
    Cached values are pure functions of the key, so cache warmth cannot
    change any run's fingerprint — the property the serial-vs-pooled
    equivalence suite pins.
    """

    def __init__(self) -> None:
        self._shapes: Dict[Tuple[str, int, int], JobShape] = {}
        self.hits = 0
        self.misses = 0

    def get(self, protocol: str, degree: int, n_ranks: int) -> JobShape:
        key = (protocol, degree, n_ranks)
        shape = self._shapes.get(key)
        if shape is not None:
            self.hits += 1
            return shape
        self.misses += 1
        rcfg = ReplicationConfig(degree=degree, protocol=protocol)
        shape = JobShape.build(n_ranks, rcfg, cluster_for(n_ranks, degree))
        self._shapes[key] = shape
        return shape

    def stats(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses, "shapes": len(self._shapes)}


def _record(point: SweepPoint, rec: RunRecord) -> Dict[str, Any]:
    """The sweep record of *point*: its axes, then the run's outcome."""
    return {
        "index": point.index,
        "protocol": point.protocol,
        "degree": point.effective_degree,
        "n_ranks": point.n_ranks,
        "workload": point.workload,
        "mix": point.mix,
        "detector": point.detector,
        "intensity": point.intensity,
        "seed": point.seed,
        "outcome": rec.outcome,
        "faults_drawn": dict(rec.mix),
        "metrics": rec.metrics,
        "stranded_by_site": rec.stranded_by_site,
        "error": rec.error,
        "invariant_error": rec.invariant_error,
        "fingerprint": rec.fingerprint,
    }


def _execute_point(
    point: SweepPoint, cache: Optional[ShapeCache] = None, memo: Optional[RunMemo] = None
) -> Dict[str, Any]:
    """Run one config through the audited campaign machinery (which
    answers from *memo* when its cell already ran seed-blind; the shape
    lookup comes first, so the shape cache counts the same either way)."""
    shape = cache.get(point.protocol, point.effective_degree, point.n_ranks) if cache is not None else None
    return _record(point, run_case(point.protocol, point.seed, point.campaign_config(), shape, memo))


def _error_record(point: SweepPoint, error: str) -> Dict[str, Any]:
    """Executor-level failure record: no fingerprint (the config never ran
    to a reproducible result), outcome ``failed``."""
    return _record(point, RunRecord(point.protocol, point.seed, "failed", {}, {}, {}, error=error))


def _cell_groups(points: List[SweepPoint], workers: int) -> List[List[SweepPoint]]:
    """The pool's unit of work: the configs of one run-memo cell
    ``(protocol, effective degree, campaign_config())`` in first-index
    order, cut at ``ceil(len(points) / workers)`` configs so a one-cell
    matrix still spreads over the pool."""
    cells: Dict[Tuple[str, int, CampaignConfig], List[SweepPoint]] = {}
    for p in points:
        cells.setdefault((p.protocol, p.effective_degree, p.campaign_config()), []).append(p)
    cap = -(-len(points) // workers)
    return [cell[i : i + cap] for cell in cells.values() for i in range(0, len(cell), cap)]


def _sweep_worker(conn) -> None:
    """Pool worker: one ShapeCache and one RunMemo for its lifetime; one
    ``(record, served, stats)`` reply per config of each dealt group, the
    stats cumulative so the last reply of a worker is its whole account."""
    cache, memo = ShapeCache(), RunMemo()
    while (msg := conn.recv())[0] == "run":
        for point in msg[1]:
            hits = memo.hits
            try:
                rec = _execute_point(point, cache, memo)
            except Exception as exc:  # run_case absorbs run errors; this is executor-level
                rec = _error_record(point, f"{type(exc).__name__}: {exc}")
            conn.send((rec, memo.hits > hits, {**cache.stats(), "memo_hits": memo.hits}))


@dataclass
class SweepResult:
    """Everything one sweep produced, ordered by config index."""

    spec: SweepSpec
    records: List[Dict[str, Any]] = field(default_factory=list)
    cache: Dict[str, int] = field(default_factory=dict)
    #: indices a run memo served instead of simulating — telemetry only:
    #: records (and so the store) are byte-identical to a memo-less sweep's
    served: List[int] = field(default_factory=list)
    worker_crashes: int = 0
    workers: int = 1
    host_seconds: float = 0.0

    @property
    def violations(self) -> List[Dict[str, Any]]:
        return [r for r in self.records if r.get("invariant_error")]

    @property
    def fingerprints(self) -> List[str]:
        return [r.get("fingerprint", "") for r in self.records]

    def summary(self) -> Dict[str, Any]:
        return {
            "spec": self.spec.as_dict(),
            "n_configs": len(self.records),
            "workers": self.workers,
            "cache": dict(self.cache),
            "worker_crashes": self.worker_crashes,
            "violations": len(self.violations),
            "host_seconds": round(self.host_seconds, 3),
        }


def run_sweep(
    spec: SweepSpec,
    workers: int = 1,
    store_base: Optional[str] = None,
    overwrite: bool = False,
    progress: Optional[Callable[[Dict[str, Any]], None]] = None,
) -> SweepResult:
    """Execute the matrix; stream records to the store as they complete.

    ``workers <= 1`` runs serially in-process; ``workers > 1`` deals
    memo cells to a worker pool (fork where available).  The
    records list is always ordered by config index whatever the completion
    order was, and per-config fingerprints are byte-identical either way.
    """
    points = spec.validate().points()
    store = SweepStore.create(store_base, overwrite=overwrite) if store_base else None
    t0 = time.monotonic()
    try:
        if workers <= 1:
            result = _run_serial(spec, points, store, progress)
        else:
            result = _run_pooled(spec, points, workers, store, progress)
        result.host_seconds = time.monotonic() - t0
        if store is not None:
            store.finalize(result.summary())
        return result
    except BaseException:
        if store is not None:
            store.abandon()
        raise


def _run_serial(spec, points, store, progress) -> SweepResult:
    cache, memo = ShapeCache(), RunMemo()
    records, served = [], []
    for point in points:
        hits = memo.hits
        rec = _execute_point(point, cache, memo)
        if memo.hits > hits:
            served.append(point.index)
        if store is not None:
            store.append(rec)
        if progress is not None:
            progress(rec)
        records.append(rec)
    stats = {**cache.stats(), "memo_hits": memo.hits}
    return SweepResult(spec=spec, records=records, cache=stats, served=served, workers=1)


def _run_pooled(spec, points, n_workers, store, progress) -> SweepResult:
    groups = deque(_cell_groups(points, n_workers))
    owed: Dict[int, deque] = {}  # wid -> its group's unfinished configs
    accounts: Dict[int, Dict[str, int]] = {}  # wid -> its latest cumulative stats
    done: Dict[int, Dict[str, Any]] = {}
    served: List[int] = []
    worker_crashes = 0
    next_wid = min(n_workers, len(groups))

    def record(rec: Dict[str, Any]) -> None:
        done[rec["index"]] = rec
        if store is not None:
            store.append(rec)
        if progress is not None:
            progress(rec)

    def deal(wid: int) -> None:
        owed[wid] = deque(groups.popleft())
        try:
            pool.send(wid, ("run", list(owed[wid])))
        except WorkerDied as died:
            # Dead between groups, it took no config; one that never replied
            # is charged anyway, so a pool whose workers cannot start drains.
            lost(wid, died, charged=wid not in accounts)

    def lost(wid: int, died: WorkerDied, charged: bool = True) -> None:
        """A death mid-group costs the first unfinished config of the
        group; the rest goes to a replacement worker."""
        nonlocal worker_crashes, next_wid
        rest = owed.pop(wid)
        worker_crashes += 1
        if charged:
            record(_error_record(rest.popleft(), f"{died} while running this config"))
        if rest:
            groups.appendleft(list(rest))
        if groups:
            next_wid += 1
            pool.spawn(next_wid - 1)
            deal(next_wid - 1)

    with Pool(_sweep_worker) as pool:
        for wid in range(next_wid):
            pool.spawn(wid)
            deal(wid)
        while owed:
            for wid in pool.ready():
                try:
                    rec, from_memo, accounts[wid] = pool.recv(wid)
                except WorkerDied as died:
                    lost(wid, died)
                    continue
                owed[wid].popleft()
                record(rec)
                if from_memo:
                    served.append(rec["index"])
                if owed[wid]:
                    continue
                del owed[wid]
                if groups:
                    deal(wid)
                else:
                    pool.retire(wid)

    return SweepResult(
        spec=spec,
        records=[done[idx] for idx in range(len(points))],
        cache={k: sum(a[k] for a in accounts.values()) for k in ("hits", "misses", "shapes", "memo_hits")},
        served=sorted(served),
        worker_crashes=worker_crashes,
        workers=n_workers,
    )


def verify_sample(
    spec: SweepSpec, records: List[Dict[str, Any]], k: int, served: Sequence[int] = ()
) -> List[str]:
    """Re-execute *k* evenly-spaced configs serially and compare
    fingerprints against the sweep's records — the production face of the
    serial-vs-pooled determinism contract.  Returns mismatch descriptions
    (empty means verified).  Records without a fingerprint (configs whose
    worker died) are skipped; they are already counted as worker crashes.

    The re-execution uses a fresh shape cache and *no* run memo; when the
    sweep *served* any config from one (``SweepResult.served``), the sample
    includes at least one of them — re-proved against a real simulation.
    """
    points = spec.points()
    n = len(points)
    if k <= 0 or n == 0:
        return []
    idxs = {(i * n) // min(k, n) for i in range(min(k, n))}
    if served and idxs.isdisjoint(served):
        idxs.add(served[0])
    cache = ShapeCache()
    mismatches: List[str] = []
    for idx in sorted(idxs):
        rec = records[idx]
        if not rec.get("fingerprint"):
            continue
        fresh = _execute_point(points[idx], cache)
        if fresh["fingerprint"] != rec["fingerprint"]:
            how = "served from the run memo; memo-less " if idx in served else ""
            mismatches.append(
                f"config #{idx} ({points[idx].label()}): {how}serial re-execution "
                f"fingerprint differs from the sweep's record"
            )
    return mismatches


# ---------------------------------------------------------------- reporting
def render_sweep_report(
    records: List[Dict[str, Any]],
    summary: Optional[Dict[str, Any]] = None,
    title: str = "Sweep",
) -> str:
    """Paper-style tables from sweep records (live result or store query):
    the per-group outcome matrix with survival rates, the per-mechanism
    strand attribution columns (``strand_site_rows``), and — when any
    record carries open-loop request accounting — the traffic ledger
    (``traffic_rows``)."""
    header, rows = sweep_outcome_rows(records, OUTCOMES)
    parts = [render_table(f"{title} — outcomes by config group", header, rows)]

    t_header, t_rows = traffic_rows(records)
    if t_rows:
        parts.append("")
        parts.append(
            render_table(f"{title} — open-loop traffic by config group", t_header, t_rows)
        )

    by_group: Dict[str, Dict[str, Dict[str, int]]] = {}
    for rec in records:
        label = sweep_group_label(rec)
        agg = by_group.setdefault(label, {})
        for site, cell in (rec.get("stranded_by_site") or {}).items():
            entry = agg.setdefault(site, {"frames": 0, "envs": 0})
            entry["frames"] += cell.get("frames", 0)
            entry["envs"] += cell.get("envs", 0)
    labelled = [(label, agg) for label, agg in sorted(by_group.items()) if agg]
    if labelled:
        s_header, s_rows = strand_site_rows(labelled)
        parts.append("")
        parts.append(
            render_table(f"{title} — stranded frames/envs by mechanism", s_header, s_rows)
        )
    if summary:
        cache = summary.get("cache", {})
        parts.append("")
        parts.append(
            f"{summary.get('n_configs', len(records))} configs on "
            f"{summary.get('workers', '?')} worker(s) in "
            f"{summary.get('host_seconds', '?')}s host time; shape cache: "
            f"{cache.get('hits', 0)} hits / {cache.get('misses', 0)} misses "
            f"({cache.get('shapes', 0)} shapes), {cache.get('memo_hits', 0)} memo hits; "
            f"{summary.get('worker_crashes', 0)} worker crashes, "
            f"{summary.get('violations', 0)} invariant violations"
        )
    return "\n".join(parts)
