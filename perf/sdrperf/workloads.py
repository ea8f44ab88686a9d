"""The six workloads: what one pass runs and how its outputs are checked.

A *pass* is the unit that is timed: build every job of the workload,
launch, run, audit, collect the result (for the sweep: one whole
``run_sweep`` including the store finalize).  One *operation* is one
``Job`` run or one sweep config; an operation fails on an unexpected
exception, a zero-leak audit or invariant error, a closed-form result
mismatch, or (``shard-1k-w2``) a fingerprint that differs from the serial
engine's or a recorded fallback.  Simulated ``failed``/``deadlocked``
*outcomes* under fault mixes are results, not failures.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import os
import resource
import shutil
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Callable, ContextManager, Dict, List, Optional

from repro.apps.nas import NAS_APPS
from repro.apps.nas.common import PROBLEMS
from repro.core.config import PROTOCOLS, ReplicationConfig
from repro.harness.experiments import Scale
from repro.harness.metrics import overhead_pct
from repro.harness.report import PAPER_TABLE1
from repro.harness.runner import Job, cluster_for
from repro.harness.sweep import SweepSpec, run_sweep
from repro.scenarios import anysource_fanin, ring_collectives
from repro.sim.shard import ParallelConfig, fingerprint

from sdrperf import WORK_DIR
from sdrperf.spec import COUNTS, SIZES


def cpu_seconds() -> float:
    """User+system CPU of this process and its reaped children."""
    return sum(
        r.ru_utime + r.ru_stime
        for r in (resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN))
    )


def _plain(obj: Any) -> Any:
    # numpy values as plain lists/numbers, so a digest does not depend on numpy's repr
    return obj.tolist() if hasattr(obj, "tolist") else repr(obj)


def digest(value: Any) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"), default=_plain)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class Pass:
    """One pass: its cost, its simulated statistics, its per-layer counts."""

    wall_s: float
    cpu_s: float
    ops: int
    events: int
    #: one line per failed operation
    failures: List[str]
    #: simulated statistics: must repeat exactly pass to pass, and at seed 0
    #: must equal ``perf/expected.json``
    stats: Dict[str, Any]
    #: exact work counts keyed by per-layer metric name
    counts: Dict[str, float]


@dataclass(frozen=True)
class JobSpec:
    label: str
    protocol: str
    n_ranks: int
    app: Callable[..., Any]
    kwargs: Dict[str, Any]
    noise: float = 0.0
    workers: int = 0
    #: closed-form per-rank application result, when the scenario has one
    expected: Optional[float] = None


def _triangle(n_ranks: int, rounds: int) -> float:
    # ring_collectives and anysource_fanin both converge on rounds * n(n-1)/2
    return rounds * n_ranks * (n_ranks - 1) / 2.0


class JobWorkload:
    """A fixed list of Jobs, built and run one after the other."""

    def __init__(self, name: str, specs: List[JobSpec]) -> None:
        self.name = name
        self.specs = specs
        #: whether a pass runs fork workers (the sharded engine)
        self.forks = any(spec.workers for spec in specs)
        self._serial_fp: List[Optional[str]] = []

    def build(self, spec: JobSpec, seed: int) -> Job:
        if spec.protocol == "native":
            cfg = ReplicationConfig(degree=1, protocol="native")
        else:
            cfg = ReplicationConfig(degree=2, protocol=spec.protocol)
        cluster = cluster_for(spec.n_ranks, cfg.degree, compute_noise=spec.noise)
        parallel = ParallelConfig(workers=spec.workers) if spec.workers else None
        job = Job(spec.n_ranks, cfg=cfg, cluster=cluster, seed=seed, parallel=parallel)
        return job.launch(spec.app, **spec.kwargs)

    def setup(self, seed: int) -> None:
        """One set-up: construct and launch every job of a pass, run none."""
        for spec in self.specs:
            self.build(spec, seed)

    def warm_up(self, seed: int) -> Pass:
        """The untimed reference pass, always on the serial engine: a sharded
        job's statistics and fingerprint must equal what it produces."""
        serial = JobWorkload(self.name, [dataclasses.replace(spec, workers=0) for spec in self.specs])
        outcomes = serial._run(seed)
        self._serial_fp = [None if isinstance(r, Exception) else digest(fingerprint(r)) for r in outcomes]
        return serial._collect(outcomes, 0.0, 0.0)

    def _run(self, seed: int) -> List[Any]:
        outcomes: List[Any] = []
        for spec in self.specs:
            try:
                outcomes.append(self.build(spec, seed).run())
            except Exception as exc:  # one failed operation, the pass goes on
                outcomes.append(exc)
        return outcomes

    def run_pass(self, seed: int, tracer: ContextManager = nullcontext()) -> Pass:
        """One pass; *tracer* (a ``cProfile.Profile``) wraps exactly the timed region."""
        gc.collect()
        with tracer:
            cpu0, t0 = cpu_seconds(), time.perf_counter()
            outcomes = self._run(seed)
            wall, cpu = time.perf_counter() - t0, cpu_seconds() - cpu0
        return self._collect(outcomes, wall, cpu)

    def _collect(self, outcomes: List[Any], wall: float, cpu: float) -> Pass:
        failures: List[str] = []
        jobs: List[Dict[str, Any]] = []
        c = _Counts()
        for i, (spec, res) in enumerate(zip(self.specs, outcomes)):
            if isinstance(res, Exception):
                failures.append(f"{spec.label}: {type(res).__name__}: {res}")
                jobs.append({"job": spec.label, "error": type(res).__name__})
                continue
            if spec.expected is not None and set(res.app_results.values()) != {spec.expected}:
                failures.append(f"{spec.label}: application results differ from closed form {spec.expected}")
            meta = res.parallel
            if spec.workers:
                if meta is None or meta["fallback"]:
                    failures.append(f"{spec.label}: sharded run fell back: {meta and meta['fallback']}")
                elif digest(fingerprint(res)) != self._serial_fp[i]:
                    failures.append(f"{spec.label}: sharded fingerprint differs from serial")
            jobs.append(
                {
                    "job": spec.label,
                    "events": res.events,
                    "frames": res.fabric["frames"],
                    "bytes": res.fabric["bytes"],
                    "runtime": repr(res.runtime),
                    "results": digest(res.app_results),
                }
            )
            c.add_job(res)
        stats: Dict[str, Any] = {"jobs": jobs}
        if self.name == "nas-table1":
            stats["overhead_pct"], c.values["apps.overhead_err_pp"] = _table1_error(self.specs, outcomes)
        return Pass(wall, cpu, len(self.specs), c.values["sim.kernel.events"], failures, stats, c.finish())


def _table1_error(specs: List[JobSpec], outcomes: List[Any]):
    """Simulated SDR overhead per kernel and its worst distance (percentage
    points) from the paper's Table 1 — the error of the *scaled-down*
    configuration against the paper's class D on 256 ranks."""
    runtime = {s.label: r.runtime for s, r in zip(specs, outcomes) if not isinstance(r, Exception)}
    overhead = {}
    for kernel in PAPER_TABLE1:
        native, sdr = runtime.get(f"{kernel}/native"), runtime.get(f"{kernel}/sdr")
        if native is not None and sdr is not None:
            overhead[kernel] = overhead_pct(native, sdr)
    err = max((abs(pct - PAPER_TABLE1[k][2]) for k, pct in overhead.items()), default=0.0)
    return {k: repr(v) for k, v in overhead.items()}, err


_WIRE_MIXES = ("network", "full")


def _in_matrix(protocol: str, mix: str) -> bool:
    """Which cells of the cartesian matrix the sweep runs.

    Every replicated protocol leaks envelopes under wire-level fault
    windows on some seeds (README "A finding"): scanning seeds 0-399 of the
    full matrix, ``mirror`` and ``redmpi`` hit an "envelope arena leak"
    invariant_error on about one seed in six, ``sdr`` and ``leader`` on
    about one in forty.  A benchmark has to run where no operation fails,
    so the wire-level mixes run under ``native`` only (no violation in
    2,400 seeds of the remaining cells); any violation that still appears
    counts as a failed operation.
    """
    return mix not in _WIRE_MIXES or protocol == "native"


class SweepWorkload:
    """One ``run_sweep`` over all five protocols, streamed to a store."""

    name = "sweep-faults"
    forks = False  # workers=1: the sweep runs in-process

    def __init__(self, ranks, mixes, n_seeds: int) -> None:
        self.ranks, self.mixes, self.n_seeds = tuple(ranks), tuple(mixes), n_seeds

    def spec(self, seed: int) -> SweepSpec:
        return SweepSpec.explicit(
            [
                {"protocol": protocol, "n_ranks": n_ranks, "workload": workload, "mix": mix, "seed": s}
                for protocol in PROTOCOLS
                for n_ranks in self.ranks
                for workload in ("ring", "allreduce", "traffic-poisson")
                for mix in self.mixes
                if _in_matrix(protocol, mix)
                for s in range(seed, seed + self.n_seeds)
            ]
        )

    def setup(self, seed: int) -> None:
        """One set-up: from calling ``run_sweep`` to its first progress record
        (matrix validation and expansion, store creation, first shape and
        config); the sweep is then abandoned through its own error path."""
        with _store_dir() as base:
            try:
                run_sweep(self.spec(seed), workers=1, store_base=base, progress=_stop_at_first)
            except _FirstRecord:
                pass

    def warm_up(self, seed: int) -> Pass:
        return self.run_pass(seed)

    def run_pass(self, seed: int, tracer: ContextManager = nullcontext()) -> Pass:
        gc.collect()
        with _store_dir() as base, tracer:
            cpu0, t0 = cpu_seconds(), time.perf_counter()
            result = run_sweep(self.spec(seed), workers=1, store_base=base)
            wall, cpu = time.perf_counter() - t0, cpu_seconds() - cpu0
        failures = []
        c = _Counts()
        outcomes: Dict[str, int] = {}
        for rec in result.records:
            if rec["invariant_error"]:
                failures.append(f"config {rec['index']}: invariant: {rec['invariant_error']}")
            elif not rec["fingerprint"]:
                failures.append(f"config {rec['index']}: {rec['error']}")
            outcomes[rec["outcome"]] = outcomes.get(rec["outcome"], 0) + 1
            c.add_record(rec)
        for outcome, n in outcomes.items():
            c.values[f"harness.campaign.{outcome}"] = n
        c.values["harness.sweep.shape_hits"] = result.cache["hits"]
        c.values["harness.sweep.shape_misses"] = result.cache["misses"]
        events = c.values["sim.kernel.events"]
        stats = {
            "configs": len(result.records),
            "events": events,
            "outcomes": dict(sorted(outcomes.items())),
            "fingerprints": digest(result.fingerprints),
            "shape_cache": [result.cache["hits"], result.cache["misses"]],
        }
        return Pass(wall, cpu, len(result.records), events, failures, stats, c.finish())


class _FirstRecord(Exception):
    pass


def _stop_at_first(_record: Dict[str, Any]) -> None:
    raise _FirstRecord


class _store_dir:
    """A fresh directory under ``perf/.work`` holding one sweep store base."""

    def __enter__(self) -> str:
        os.makedirs(WORK_DIR, exist_ok=True)
        self.path = tempfile.mkdtemp(dir=WORK_DIR)
        return os.path.join(self.path, "sweep")

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.path, ignore_errors=True)


class _Counts:
    """Accumulates the exact per-layer work counts of one pass."""

    _SUMS = {
        "mpi.pml.sends_posted": "sends_posted",
        "mpi.pml.recvs_posted": "recvs_posted",
        "mpi.matching.unexpected_count": "unexpected_count",
        "core.protocol.acks_sent": "acks_sent",
        "core.protocol.resends": "resends",
        "core.protocol.duplicates_dropped": "duplicates_dropped",
        "core.protocol.failovers_handled": "failovers_handled",
        "core.protocol.decisions_sent": "decisions_sent",
    }

    def __init__(self) -> None:
        self.values: Dict[str, float] = dict.fromkeys(COUNTS, 0)
        self._env_acquired = self._env_allocated = 0
        self._frames_acquired = self._frames_allocated = 0
        self._app_sends = 0

    def add_job(self, res) -> None:
        v = self.values
        v["sim.kernel.events"] += res.events
        v["network.fabric.frames"] += res.fabric["frames"]
        v["network.fabric.bytes"] += res.fabric["bytes"]
        v["network.fabric.frame_high_water"] = max(
            v["network.fabric.frame_high_water"], res.fabric["frame_high_water"]
        )
        for key in ("fault_drops", "fault_dups", "fault_delays"):
            v[f"network.fabric.{key}"] += res.fabric[key]
        for name, stat in self._SUMS.items():
            v[name] += res.stat_total(stat)
        v["mpi.pml.env_high_water"] = max(v["mpi.pml.env_high_water"], res.stat_total("env_high_water"))
        v["mpi.matching.unexpected_peak"] = max(
            v["mpi.matching.unexpected_peak"], max(s.get("unexpected_peak", 0) for s in res.stats.values())
        )
        v["mpi.api.payload_interned"] += res.payload_interned
        v["mpi.api.payload_misses"] += res.payload_misses
        if res.parallel is not None:
            v["sim.shard.windows"] += res.parallel["windows"]
            v["sim.shard.fallbacks"] += len(res.parallel["fallback"])
        self._env_acquired += res.stat_total("env_acquired")
        self._env_allocated += res.stat_total("env_allocated")
        self._frames_acquired += res.fabric["frames_acquired"]
        self._frames_allocated += res.fabric["frames_allocated"]
        self._app_sends += res.stat_total("app_sends")

    def add_record(self, rec: Dict[str, Any]) -> None:
        """A sweep record carries the campaign metrics and, in its
        fingerprint, the frame and byte totals; PML-level stats stay 0."""
        v, m = self.values, rec["metrics"]
        v["sim.kernel.events"] += m.get("events", 0)
        for key in ("fault_drops", "fault_dups", "fault_delays"):
            v[f"network.fabric.{key}"] += m.get(key, 0)
        v["core.protocol.resends"] += m.get("resends", 0)
        v["core.protocol.duplicates_dropped"] += m.get("duplicates_dropped", 0)
        if rec["fingerprint"]:
            fp = json.loads(rec["fingerprint"])
            v["network.fabric.frames"] += fp["frames"]
            v["network.fabric.bytes"] += fp["bytes"]

    def finish(self) -> Dict[str, float]:
        v = self.values

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        v["mpi.pml.env_reuse_ratio"] = ratio(self._env_acquired - self._env_allocated, self._env_acquired)
        v["network.fabric.frame_reuse_ratio"] = ratio(
            self._frames_acquired - self._frames_allocated, self._frames_acquired
        )
        v["mpi.matching.unexpected_ratio"] = ratio(
            v["mpi.matching.unexpected_count"], v["mpi.pml.recvs_posted"]
        )
        v["core.protocol.acks_per_app_send"] = ratio(v["core.protocol.acks_sent"], self._app_sends)
        hits, misses = v["harness.sweep.shape_hits"], v["harness.sweep.shape_misses"]
        v["harness.sweep.shape_hit_ratio"] = ratio(hits, hits + misses)
        return v


def make(name: str, smoke: bool = False):
    """Build workload *name* at the full or the smoke size."""
    size = SIZES["smoke" if smoke else "full"][name]
    n = size.get("n_ranks", 0)
    if name in ("coll-64", "coll-1k", "shard-1k-w2"):
        kwargs = {"iters": size["iters"], "nbytes": 4096}
        workers = 2 if name == "shard-1k-w2" else 0
        expected = _triangle(n, size["iters"])
        spec = JobSpec(f"sdr/{n}", "sdr", n, ring_collectives, kwargs, workers=workers, expected=expected)
        return JobWorkload(name, [spec])
    if name == "anysource-64":
        kwargs = {"rounds": size["rounds"]}
        expected = _triangle(n, size["rounds"])
        specs = [
            JobSpec(f"{proto}/{n}", proto, n, anysource_fanin, kwargs, expected=expected)
            for proto in ("leader", "sdr", "native")
        ]
        return JobWorkload(name, specs)
    if name == "nas-table1":
        # run_nas's exact arguments, built here so set-up can be bracketed
        cap = size["iter_cap"]
        scale = Scale("perf", n, size["nas_class"], cap, hpccg_iters=0, cm1_steps=0, netpipe_iters=0)
        specs = []
        for kernel in PAPER_TABLE1:
            iters = scale.nas_iters(PROBLEMS[kernel][scale.nas_class].iterations)
            kwargs = {"klass": scale.nas_class, "iters": iters}
            for proto in ("native", "sdr"):
                label = f"{kernel}/{proto}"
                specs.append(JobSpec(label, proto, n, NAS_APPS[kernel], kwargs, noise=scale.noise))
        return JobWorkload(name, specs)
    if name == "sweep-faults":
        return SweepWorkload(size["ranks"], size["mixes"], size["n_seeds"])
    raise KeyError(name)
