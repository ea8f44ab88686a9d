"""Sweep orchestrator: from one Job to thousands of audited configurations.

The one runner of audited fault experiments: every config runs through
:func:`~repro.harness.campaign.run_case`, and ``sdr-mpi campaign`` is the
matrix at its default axes (N seeds × the five protocols at a fixed
shape).  A *sweep* is a config matrix over every axis the paper's
claims compare —

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

Non-cartesian matrices come from :meth:`SweepSpec.explicit`, a literal
list of configs indexed by list position.  Either kind is checked once,
when it is built, not when config #1731 finally executes — then run
serially or on a :class:`~repro.sim.pool.Pool` of workers, streamed to a
:class:`~repro.harness.store.SweepStore`, and rendered as paper-style tables.

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

import math
import time
from collections import deque
from dataclasses import dataclass, field
from itertools import product
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

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

#: an explicit entry's keys (the :class:`SweepPoint` fields it names), and
#: the defaults of the optional ones that have none there
_ENTRY_KEYS = ("protocol", "degree", "n_ranks", "workload", "mix", "seed", "detector", "intensity")
_ENTRY_DEFAULTS: Dict[str, Any] = {"degree": 2, "workload": "ring", "mix": "full"}


class SweepError(ValueError):
    """Invalid sweep matrix — raised at build time, naming the bad axis."""


class SweepPoint(NamedTuple):
    """One fully-resolved configuration of the matrix: a tuple row, so a
    matrix of them is built positionally and checked column by column."""

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


def _known(names: Any, have: Any) -> Callable[[Any], Optional[str]]:
    return lambda v: None if v in names else f"unknown {v!r}; have {have}"


def _at_least(minimum: int) -> Callable[[Any], Optional[str]]:
    return lambda v: None if v >= minimum else f"{v} is below the minimum {minimum}"


def _intensity(x: float) -> Optional[str]:
    # inf would scale a mix's zero wire odds to nan, which min() caps to 1
    if not x > 0:
        return f"{x} must be > 0"
    return None if math.isfinite(x) else f"{x} is not finite"


def _rule_table(min_degree: int) -> Tuple[Tuple[Any, ...], ...]:
    """One row per field: ``(axis, field, type, type name, value rule, name
    rule)``; a rule says what is wrong with a value, or ``None``."""
    return (
        ("protocols", "protocol", str, "str", None, _known(PROTOCOLS, PROTOCOLS)),
        ("degrees", "degree", int, "int", _at_least(min_degree), None),
        ("ranks", "n_ranks", int, "int", _at_least(2), None),
        ("workloads", "workload", str, "str", None, None),  # named by the envelope check
        ("mixes", "mix", str, "str", None, _known(MIX_PROFILES, sorted(MIX_PROFILES))),
        ("detectors", "detector", str, "str", None,
         _known(DETECTOR_PROFILES, sorted(DETECTOR_PROFILES))),
        ("intensities", "intensity", (int, float), "a number", _intensity, None),
        ("seeds", "seed", int, "int", _at_least(0), None),
    )


#: by minimum degree: 2 once a cartesian matrix holds a replicated
#: protocol (an explicit list checks that per config, with the envelopes)
_RULES = {m: _rule_table(m) for m in (1, 2)}


def _check_axes(spec: "SweepSpec") -> None:
    """The rules over a cartesian matrix's axes: type and value rule per
    value, then duplicates, then names."""
    replicated = any(p != "native" for p in spec.protocols)
    for axis, _field, kind, kind_name, rule, known in _RULES[2 if replicated else 1]:
        values = getattr(spec, axis)
        if not values:
            raise SweepError(f"axis {axis!r} is empty — nothing to sweep")
        for v in values:
            if not isinstance(v, kind) or isinstance(v, bool):
                raise SweepError(f"axis {axis!r}: {v!r} is not {kind_name}")
            if rule is not None and (why := rule(v)):
                raise SweepError(f"axis {axis!r}: {why}")
        if len(set(values)) != len(values):
            raise SweepError(f"axis {axis!r} has duplicate values: {list(values)}")
        if known is not None:
            for v in values:
                if why := known(v):
                    raise SweepError(f"axis {axis!r}: {why}")
    combos = product(spec.workloads, spec.ranks, spec.protocols, spec.degrees)
    _check_envelopes(combos, lambda *_: "axis 'workloads'")


def _check_columns(points: Tuple[SweepPoint, ...]) -> Dict[str, Tuple[Any, ...]]:
    """The rules over an explicit list, one field at a time: the type of
    every value, the rules of each distinct one (an error names the first
    config holding it).  Returns each axis's per-config values."""
    by_field = dict(zip(SweepPoint._fields, zip(*points)))
    columns: Dict[str, Tuple[Any, ...]] = {}
    for axis, field, kind, kind_name, rule, known in _RULES[1]:
        values = columns[axis] = by_field[field]
        types = set(map(type, values))
        if bool in types or not all(issubclass(t, kind) for t in types):
            i = next(i for i, v in enumerate(values) if not isinstance(v, kind) or isinstance(v, bool))
            raise SweepError(f"explicit config #{i}, {field}: {values[i]!r} is not {kind_name}")
        for v in dict.fromkeys(values):
            if why := (rule is not None and rule(v)) or (known is not None and known(v)):
                raise SweepError(f"explicit config #{values.index(v)}, {field}: {why}")
    rows = list(zip(columns["workloads"], columns["ranks"], columns["protocols"], columns["degrees"]))
    _check_envelopes(dict.fromkeys(rows), lambda field, combo: f"explicit config #{rows.index(combo)}, {field}")
    return columns


def _check_envelopes(combos: Any, where: Callable[[str, Tuple[Any, ...]], str]) -> None:
    """Every distinct ``(workload, n_ranks, protocol, degree)`` the matrix
    emits names a scenario whose envelope admits it."""
    scenarios: Dict[str, Any] = {}
    for combo in combos:
        workload, n_ranks, protocol, degree = combo
        scenario = scenarios.get(workload)
        if scenario is None:
            try:
                scenario = scenarios[workload] = get_scenario(workload)
            except ScenarioError:
                raise SweepError(
                    f"{where('workload', combo)}: unknown {workload!r}; have {scenario_names()}"
                ) from None
        if protocol != "native" and degree < 2:
            raise SweepError(f"{where('degree', combo)}: {degree} is below the minimum 2")
        try:
            scenario.check(n_ranks, 1 if protocol == "native" else degree)
        except ScenarioError as exc:
            raise SweepError(
                f"{where('workload', combo)}: {workload!r} cannot run at n_ranks={n_ranks}: {exc}"
            ) from None


@dataclass(frozen=True)
class SweepSpec:
    """A config matrix, checked and enumerated once, when it is built.

    The default mode is the cartesian product of the axes; :meth:`explicit`
    builds a literal config list.  Either way one rule table checks the
    distinct values the matrix uses: :class:`SweepError` names the bad
    axis, or the first config holding the bad value."""

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
    #: matrix and the axis tuples above are derived from it
    configs: Optional[Tuple[SweepPoint, ...]] = None

    def __post_init__(self) -> None:
        # a float step count runs every config to wrong results; an infinite
        # horizon never times a hung run out
        if not isinstance(self.steps, int) or isinstance(self.steps, bool):
            raise SweepError(f"steps must be an int, got {self.steps!r}")
        if self.steps < 1:
            raise SweepError(f"steps must be >= 1, got {self.steps}")
        for knob in ("horizon", "active"):
            x = getattr(self, knob)
            if not isinstance(x, (int, float)) or isinstance(x, bool) or not math.isfinite(x):
                raise SweepError(f"{knob} must be a finite number, got {x!r}")
        if not (0 < self.active <= self.horizon):
            raise SweepError(
                f"need 0 < active <= horizon, got active={self.active} "
                f"horizon={self.horizon}"
            )
        if self.configs is not None:
            points = tuple(self.configs)
            if not points:
                raise SweepError("explicit matrix is empty — nothing to sweep")
            i = next((i for i, p in enumerate(points) if p.index != i), None)
            if i is not None:
                raise SweepError(f"explicit config #{i}: index {points[i].index} is not its list position")
            knobs = (self.steps, self.horizon, self.active)
            i = next((i for i, p in enumerate(points) if (p.steps, p.horizon, p.active) != knobs), None)
            if i is not None:  # a point runs its own knobs: they are the ones just checked
                raise SweepError(f"explicit config #{i}: steps/horizon/active are not the spec's {knobs}")
            object.__setattr__(self, "configs", points)
            for axis, values in _check_columns(points).items():
                distinct = dict.fromkeys(values)  # first-seen order; numeric axes sorted
                object.__setattr__(self, axis, tuple(sorted(distinct) if axis in ("degrees", "ranks") else distinct))
        else:
            # Normalize every axis (ranges, lists, generators) to a tuple so
            # the spec is hashable, picklable, and iterable more than once.
            for axis, *_rule in _RULES[1]:
                object.__setattr__(self, axis, tuple(getattr(self, axis)))
            _check_axes(self)
            points = self._product()
        object.__setattr__(self, "_points", points)

    @classmethod
    def explicit(
        cls, entries: Sequence[Dict[str, Any]], steps: int = 12, horizon: float = 2e-3, active: float = 60e-6
    ) -> "SweepSpec":
        """Build a non-cartesian matrix from a literal list of configs.

        Each entry is a dict with the per-config keys (``protocol``,
        ``n_ranks``, ``seed`` required; ``degree``/``workload``/``mix``/
        ``detector``/``intensity`` defaulted like the cartesian axes).
        Config indices are the list positions — stable across runs, so a
        stored sweep and its re-execution agree on ``config #17``.
        """
        fill = {**SweepPoint._field_defaults, **_ENTRY_DEFAULTS}
        fill.update(steps=steps, horizon=horizon, active=active)
        base = [fill.get(f) for f in SweepPoint._fields]
        # per distinct key order: the row positions its values fill
        slots: Dict[Tuple[str, ...], Tuple[int, ...]] = {}
        points: List[SweepPoint] = []
        for i, entry in enumerate(entries):
            if not isinstance(entry, dict):
                raise SweepError(f"explicit config #{i}: expected a dict, got {entry!r}")
            keys = tuple(entry)
            where = slots.get(keys)
            if where is None:
                unknown = set(keys).difference(_ENTRY_KEYS)
                if unknown:
                    raise SweepError(
                        f"explicit config #{i}: unknown keys {sorted(unknown)}; have {sorted(_ENTRY_KEYS)}"
                    )
                missing = {"protocol", "n_ranks", "seed"}.difference(keys)
                if missing:
                    raise SweepError(f"explicit config #{i}: missing required keys {sorted(missing)}")
                where = slots[keys] = tuple(map(SweepPoint._fields.index, keys))
            row = base.copy()
            row[0] = i
            for slot, value in zip(where, entry.values()):
                row[slot] = value
            points.append(SweepPoint(*row))
        return cls(steps=steps, horizon=horizon, active=active, configs=tuple(points))

    def _product(self) -> Tuple[SweepPoint, ...]:
        """The cartesian matrix in axis-major order.  ``native`` always runs
        r=1, so it takes only the first degree — never a duplicate run."""
        combos = [
            c for c in product(
                self.protocols, self.degrees, self.ranks, self.workloads,
                self.mixes, self.detectors, self.intensities, self.seeds,
            )
            if c[0] != "native" or c[1] == self.degrees[0]
        ]
        return tuple(
            SweepPoint(i, p, d, n, w, m, s, self.steps, self.horizon, self.active, det, x)
            for i, (p, d, n, w, m, det, x, s) in enumerate(combos)
        )

    @property
    def n_configs(self) -> int:
        return len(self._points)

    def points(self) -> List[SweepPoint]:
        """The matrix as enumerated when the spec was built: axis-major
        order, or list order for an explicit spec."""
        return list(self._points)

    def as_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {axis: list(getattr(self, axis)) for axis, *_rule in _RULES[1]}
        out.update(steps=self.steps, horizon=self.horizon, active=self.active)
        if self.configs is not None:
            out["explicit"] = [{key: getattr(p, key) for key in _ENTRY_KEYS} for p in self.configs]
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


def _cell_groups(points: Sequence[SweepPoint], workers: int) -> List[List[SweepPoint]]:
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
    store = SweepStore.create(store_base, overwrite=overwrite) if store_base else None
    t0 = time.monotonic()
    try:
        if workers <= 1:
            result = _run_serial(spec, store, progress)
        else:
            result = _run_pooled(spec, workers, store, progress)
        result.host_seconds = time.monotonic() - t0
        if store is not None:
            store.finalize(result.summary())
        return result
    except BaseException:
        if store is not None:
            store.abandon()
        raise


def _run_serial(spec, store, progress) -> SweepResult:
    cache, memo = ShapeCache(), RunMemo()
    records, served = [], []
    for point in spec._points:
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


def _run_pooled(spec, n_workers, store, progress) -> SweepResult:
    groups = deque(_cell_groups(spec._points, n_workers))
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
        records=[done[idx] for idx in range(spec.n_configs)],
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
    points, n = spec._points, spec.n_configs
    if k <= 0:
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
