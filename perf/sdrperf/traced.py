"""The traced pass: per-layer self time, spans, probes, memory.

One pass runs under ``cProfile``.  Self time is bucketed by source file
into this repo's layers (``layer_of``); self time of everything that is
not the simulator's own Python — builtins, C methods, the standard
library, numpy — is charged to the layer that called it, through the
profile's caller table (a chain of foreign callers is followed up to the
first simulator function).  What reaches no layer — the benchmark's own
driver code, profiler artefacts — is ``trace.unattributed_share``.

The profiler slows Python calls and not native work, so shares lean
toward call-heavy layers; ``trace.overhead_x`` says by how much the pass
was slowed overall.  Call counts repeat exactly and carry no such bias.
"""

from __future__ import annotations

import cProfile
import os
import pstats
import resource
import statistics
import time
import tracemalloc
from typing import Dict, List, Optional, Tuple

from repro.core.config import ReplicationConfig
from repro.harness.runner import Job, cluster_for
from repro.harness.store import SweepStore
from repro.sim.kernel import Simulator
from repro.sim.process import Process

from sdrperf import ROOT
from sdrperf.measure import check_pass
from sdrperf.spec import LAYERS, PER_LAYER, SPANS
from sdrperf.workloads import Pass, _store_dir

_SRC = os.path.join(ROOT, "src", "repro") + os.sep

#: file (or directory prefix) under src/repro -> layer; first match wins
_FILE_LAYERS: List[Tuple[str, str]] = [
    ("sim/kernel.py", "sim.kernel"),
    ("sim/shard.py", "sim.shard"),
    ("sim/traffic.py", "sim.traffic"),
    ("sim/", "sim.process"),  # process, sync, rng
    ("network/", "network.fabric"),  # fabric, model, topology
    ("mpi/pml.py", "mpi.pml"),
    ("mpi/matching.py", "mpi.matching"),
    ("mpi/collectives/", "mpi.collectives"),
    ("mpi/", "mpi.api"),  # api, comm, handles, datatypes, group, status, errors
    ("core/membership.py", "core.membership"),
    ("core/recovery.py", "core.membership"),
    ("core/io.py", "core.membership"),
    ("core/", "core.protocol"),  # sdr, replicated, interpose, baselines, worlds, config
    ("harness/campaign.py", "harness.campaign"),
    ("harness/faults.py", "harness.campaign"),
    ("harness/sweep.py", "harness.sweep"),
    ("harness/store.py", "harness.store"),
    ("harness/", "harness.runner"),  # runner, plus experiments/metrics/report helpers
    ("apps/", "apps"),
    ("scenarios/", "apps"),
]

Key = Tuple[str, int, str]


def layer_of(filename: str) -> Optional[str]:
    if not filename.startswith(_SRC):
        return None
    rel = filename[len(_SRC):].replace(os.sep, "/")
    for prefix, layer in _FILE_LAYERS:
        if rel.startswith(prefix):
            return layer
    return None


def profile_pass(workload, seed: int) -> Tuple[Pass, Dict[Key, tuple]]:
    prof = cProfile.Profile()
    p = workload.run_pass(seed, tracer=prof)
    return p, pstats.Stats(prof).stats  # type: ignore[attr-defined]


def attribute(stats: Dict[Key, tuple]) -> Tuple[Dict[str, float], Dict[str, int], float, float, int]:
    """Returns (self seconds per layer, calls per layer, unattributed
    seconds, total self seconds, total calls)."""
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    memo: Dict[Key, Dict[Optional[str], float]] = {}

    def owners(key: Key, visiting: frozenset) -> Dict[Optional[str], float]:
        """Who pays for foreign function *key*: layer -> share (sums to 1)."""
        if key in memo:
            return memo[key]
        if key in visiting:  # a cycle of foreign callers pays nobody
            return {None: 1.0}
        # callers[c] = (nc, cc, tt, ct): tt is key's self time when called by c
        callers = {c: v for c, v in stats[key][4].items() if c != key and c in stats}
        col = 2 if any(v[2] > 0.0 for v in callers.values()) else 0
        total = sum(v[col] for v in callers.values())
        out: Dict[Optional[str], float] = {} if total else {None: 1.0}
        for caller, v in callers.items():
            layer = layer_of(caller[0])
            sub = {layer: 1.0} if layer is not None else owners(caller, visiting | {key})
            for owner, share in sub.items():
                out[owner] = out.get(owner, 0.0) + share * v[col] / total
        memo[key] = out
        return out

    unattributed = 0.0
    total_s = 0.0
    total_calls = 0
    for key, (_cc, nc, tt, _ct, _callers) in stats.items():
        total_s += tt
        total_calls += nc
        layer = layer_of(key[0])
        if layer is not None:
            self_s[layer] += tt
            calls[layer] += nc
            continue
        for owner, share in owners(key, frozenset()).items():
            if owner is None:
                unattributed += tt * share
            else:
                self_s[owner] += tt * share
    return self_s, calls, unattributed, total_s, total_calls


def span_seconds(stats: Dict[Key, tuple]) -> Dict[str, float]:
    out = {}
    for name, rel, func in SPANS:
        path = _SRC + rel.replace("/", os.sep)
        out[name] = sum(v[3] for k, v in stats.items() if k[0] == path and k[2] == func)
    return out


# ------------------------------------------------------------------ probes
def probe_floor(n_procs: int = 64, charges: int = 2000) -> float:
    """ns per event of dispatch + generator resume alone (bench.py --floor's
    shape): processes yielding CPU charges through a 4-deep generator chain."""

    def leaf(n, period):
        for _ in range(n):
            yield period

    def tier2(n, period):
        yield from leaf(n, period)

    def tier3(n, period):
        yield from tier2(n, period)

    def chain(n, period):
        yield from tier3(n, period)

    sim = Simulator()
    for p in range(n_procs):
        Process(sim, chain(charges, (97 + 13 * (p % 11)) * 1e-9), name=f"floor{p}")
    t0 = time.perf_counter()
    sim.run()
    return (time.perf_counter() - t0) * 1e9 / sim.events_dispatched


def probe_construct(n_ranks: int = 1024) -> float:
    """us per simulated process of one ``Job(...)`` under sdr r=2."""
    cfg = ReplicationConfig(degree=2, protocol="sdr")
    t0 = time.perf_counter()
    job = Job(n_ranks, cfg=cfg, cluster=cluster_for(n_ranks, cfg.degree))
    return (time.perf_counter() - t0) * 1e6 / job.rmap.n_procs


def probe_store(n_records: int = 200) -> float:
    """us per record through ``SweepStore.create/append/finalize``."""
    record = {
        "protocol": "sdr", "degree": 2, "n_ranks": 4, "workload": "ring", "mix": "clean", "seed": 0,
        "outcome": "completed", "error": None, "invariant_error": None,
        "metrics": {"events": 1000, "runtime": 1e-4, "stranded_frames": 0, "stranded_envs": 0},
        "fingerprint": "x" * 400,
    }  # fmt: skip
    with _store_dir() as base:
        t0 = time.perf_counter()
        store = SweepStore.create(base)
        for i in range(n_records):
            store.append({**record, "index": i})
        store.finalize({})
        return (time.perf_counter() - t0) * 1e6 / n_records


def traced_memory(workload, seed: int) -> Tuple[float, float]:
    """(Python-heap peak in MB, bytes per simulated process) of one pass."""
    tracemalloc.start()
    try:
        workload.run_pass(seed)
        _cur, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n_procs = sum(s.n_ranks if s.protocol == "native" else 2 * s.n_ranks for s in workload.specs)
    return peak / 1e6, peak / n_procs


# --------------------------------------------------------------- assembly
def _children_cpu() -> float:
    r = resource.getrusage(resource.RUSAGE_CHILDREN)
    return r.ru_utime + r.ru_stime


def layer_table(workload, seed: int, smoke: bool) -> Tuple[Dict[str, float], Pass, List[str]]:
    """Every per-layer metric of *workload*, the traced pass, and its failures."""
    warm = workload.warm_up(seed)
    failures = [f"warm-up: {f}" for f in check_pass(warm, None, None)]
    kids0 = _children_cpu()
    plain = workload.run_pass(seed)
    worker_cpu = _children_cpu() - kids0
    failures += check_pass(plain, warm, None)
    traced, stats = profile_pass(workload, seed)
    failures += check_pass(traced, warm, None)

    self_s, calls, unattributed, total_s, total_calls = attribute(stats)
    events = traced.events
    out: Dict[str, float] = dict.fromkeys((name for name, _u, _b, _m in PER_LAYER), 0.0)
    for layer in LAYERS:
        out[f"{layer}.self_share"] = self_s[layer] / total_s
        out[f"{layer}.self_ns_per_event"] = self_s[layer] * 1e9 / events
        out[f"{layer}.calls_per_event"] = calls[layer] / events
    out.update(span_seconds(stats))
    out.update(traced.counts)
    if worker_cpu > 0.0:
        out["sim.shard.worker_cpu_s"] = worker_cpu
        out["sim.shard.worker_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * 1024 / 1e6
    out["trace.overhead_x"] = traced.wall_s / plain.wall_s
    out["trace.calls_per_event"] = total_calls / events
    out["trace.unattributed_share"] = unattributed / total_s

    reps = 1 if smoke else 3
    small = {"n_procs": 8, "charges": 50} if smoke else {}
    out["sim.kernel.floor_ns_per_event"] = statistics.median(probe_floor(**small) for _ in range(reps))
    out["harness.runner.construct_us_per_proc"] = statistics.median(
        probe_construct(16 if smoke else 1024) for _ in range(reps)
    )
    out["harness.store.append_us"] = statistics.median(probe_store(20 if smoke else 200) for _ in range(reps))
    if workload.name == "coll-1k":
        out["mem.traced_peak_mb"], out["mem.bytes_per_proc"] = traced_memory(workload, seed)
    return out, traced, failures

