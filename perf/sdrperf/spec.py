"""What the benchmark measures: workloads, metrics, and which layer moves what.

This module is the single source of ``BENCHMARK.json`` (``run.py
--write-benchmark`` regenerates it, the smoke test checks they agree).
``BENCHMARK.json``'s schema is closed — a metric carries exactly its
name/unit/direction(/bound) — so each layer metric's ``moves`` entry (the
end-to-end metric and workloads it is predicted to move, written down
before measuring) lives here and in ``perf/README.md``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

#: seconds one run measures for (``--seconds``); see README "Budget"
RUN_SECONDS = 10

COMMAND = ["python3", "perf/run.py"]
PATHS = ["perf"]

WORKLOADS: Dict[str, str] = {
    "coll-64": (
        "sdr r=2 ring_collectives on 64 ranks, long run: collectives, SDR acks and eager PML "
        "on a shallow heap with ~ms construction; the 'before' of the scale decay"
    ),
    "coll-1k": (
        "the same scenario on 1024 ranks (bench.py's sdr-collectives-1024): deep heap, cold "
        "per-proc state, construction and RSS that matter; coll-64/coll-1k ev/s is the scale decay"
    ),
    "shard-1k-w2": (
        "the coll-1k job on 2 fork workers: only sim.shard differs, so coll-1k/shard wall_s is "
        "the sharding speedup; fingerprint must equal serial, no fallback allowed"
    ),
    "anysource-64": (
        "anysource_fanin under leader, sdr and native: wildcard receives, unexpected ratio ~0.5, "
        "leader decisions, zero collectives work; a matching gain shows here first"
    ),
    "nas-table1": (
        "paper Table 1 shape, BT CG FT MG SP x native/sdr: rendezvous, large-payload fabric "
        "pricing, seeded compute noise; the only workload with a reference (PAPER_TABLE1)"
    ),
    "sweep-faults": (
        "run_sweep over five protocols x ring/allreduce/traffic-poisson x four fault mixes: "
        "hundreds of tiny jobs, so construction, fault paths, membership, traffic and the store run"
    ),
}

#: full sizes (one pass ~2-3.5 s on the 2-core dev host) and the smoke
#: sizes the tier-1 test runs.  The issue's sizes were cut to fit the
#: driver's total-time cap (coll-64 iters 100->80, nas iteration cap 3->2)
#: and the sweep matrix to the cells where no operation fails (480->288
#: configs, see ``workloads._in_matrix``); no workload was dropped.
SIZES: Dict[str, Dict[str, Dict[str, Any]]] = {
    "full": {
        "coll-64": {"n_ranks": 64, "iters": 80},
        "coll-1k": {"n_ranks": 1024, "iters": 2},
        "shard-1k-w2": {"n_ranks": 1024, "iters": 2},
        "anysource-64": {"n_ranks": 64, "rounds": 100},
        "nas-table1": {"n_ranks": 64, "nas_class": "C", "iter_cap": 2},
        "sweep-faults": {"ranks": (4, 8), "mixes": ("clean", "crash", "network", "full"), "n_seeds": 4},
    },
    "smoke": {
        "coll-64": {"n_ranks": 8, "iters": 4},
        "coll-1k": {"n_ranks": 32, "iters": 1},
        "shard-1k-w2": {"n_ranks": 32, "iters": 1},
        "anysource-64": {"n_ranks": 8, "rounds": 4},
        "nas-table1": {"n_ranks": 16, "nas_class": "A", "iter_cap": 1},
        "sweep-faults": {"ranks": (4,), "mixes": ("clean", "full"), "n_seeds": 1},
    },
}

ALL = list(WORKLOADS)
NAS_FIRST = ["nas-table1"] + [w for w in ALL if w != "nas-table1"]
COLL = ["coll-64", "coll-1k"]
BIG = ["coll-1k", "shard-1k-w2"]
SWEEP = ["sweep-faults"]
SHARD = ["shard-1k-w2"]

#: (name, unit, better, bound).  A bound is the share of the parent's median
#: a metric may worsen by.  Timings are reported at the reference host speed
#: (``hostspeed``); their ten-seed spreads on the dev host are 0.02-0.08
#: (README "Repeatability"), a third of the widest bound the driver accepts.
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("wall_s", "s", "lower", 0.25),
    ("events_per_sec", "ev/s", "higher", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
    ("configs_per_sec", "1/s", "higher", 0.25),
    ("ok_share", "fraction", "higher", 0.001),
]

#: layer -> what its self time is predicted to move (metric, workloads)
LAYERS: Dict[str, List[Tuple[str, List[str]]]] = {
    "sim.kernel": [("events_per_sec", ALL)],
    "sim.process": [("events_per_sec", ALL)],
    "sim.shard": [("wall_s", SHARD), ("cpu_s", SHARD)],
    "sim.traffic": [("configs_per_sec", SWEEP)],
    "network.fabric": [("events_per_sec", NAS_FIRST)],
    "mpi.api": [("events_per_sec", ALL)],
    "mpi.pml": [("events_per_sec", NAS_FIRST)],
    "mpi.matching": [("events_per_sec", ["anysource-64"])],
    "mpi.collectives": [("events_per_sec", COLL)],
    "core.protocol": [("events_per_sec", COLL + ["anysource-64"])],
    "core.membership": [("configs_per_sec", SWEEP)],
    "harness.runner": [("setup_s", BIG), ("configs_per_sec", SWEEP)],
    "harness.campaign": [("configs_per_sec", SWEEP)],
    "harness.sweep": [("configs_per_sec", SWEEP)],
    "harness.store": [("configs_per_sec", SWEEP)],
    "apps": [("events_per_sec", ["nas-table1"])],
}

_RSS = [("peak_rss_mb", BIG)]
_SETUP = [("setup_s", BIG), ("configs_per_sec", SWEEP)]
_SWEEP = [("configs_per_sec", SWEEP)]
_SHARD = [("wall_s", SHARD), ("cpu_s", SHARD)]
_NONE: List[Tuple[str, List[str]]] = []

#: spans: cumulative traced seconds of one public call, (metric, source
#: file under src/repro, function name)
SPANS: List[Tuple[str, str, str]] = [
    ("harness.runner.shape_build_s", "harness/runner.py", "build"),
    ("harness.runner.construct_s", "harness/runner.py", "__init__"),
    ("harness.runner.launch_s", "harness/runner.py", "launch"),
    ("harness.runner.run_s", "harness/runner.py", "run"),
    ("harness.runner.audit_s", "harness/runner.py", "audit"),
    ("harness.sweep.points_s", "harness/sweep.py", "points"),
    ("harness.campaign.sample_faults_s", "harness/campaign.py", "sample_faults"),
    ("harness.campaign.run_case_s", "harness/campaign.py", "run_case"),
    ("harness.store.append_s", "harness/store.py", "append"),
    ("harness.store.finalize_s", "harness/store.py", "finalize"),
    ("sim.traffic.build_plans_s", "sim/traffic.py", "build_plans"),
    ("sim.shard.plan_s", "sim/shard.py", "build"),
    ("sim.shard.run_parallel_s", "sim/shard.py", "run_parallel"),
    ("sim.shard.barrier_wait_s", "sim/shard.py", "_collect_barrier"),
    ("sim.shard.merge_s", "sim/shard.py", "_merge_results"),
]

#: exact work counts taken from JobResult / sweep records
COUNTS: List[str] = [
    "sim.kernel.events",
    "network.fabric.frames",
    "network.fabric.bytes",
    "network.fabric.frame_high_water",
    "network.fabric.fault_drops",
    "network.fabric.fault_dups",
    "network.fabric.fault_delays",
    "mpi.pml.sends_posted",
    "mpi.pml.recvs_posted",
    "mpi.pml.env_high_water",
    "mpi.matching.unexpected_count",
    "mpi.matching.unexpected_peak",
    "mpi.api.payload_interned",
    "mpi.api.payload_misses",
    "core.protocol.acks_sent",
    "core.protocol.resends",
    "core.protocol.duplicates_dropped",
    "core.protocol.failovers_handled",
    "core.protocol.decisions_sent",
    "harness.sweep.shape_hits",
    "harness.sweep.shape_misses",
    "harness.campaign.completed",
    "harness.campaign.degraded",
    "harness.campaign.failed",
    "harness.campaign.deadlocked",
    "sim.shard.windows",
    "sim.shard.fallbacks",
]

#: useful-to-attempted ratios
RATIOS: List[str] = [
    "mpi.pml.env_reuse_ratio",
    "network.fabric.frame_reuse_ratio",
    "mpi.matching.unexpected_ratio",
    "core.protocol.acks_per_app_send",
    "harness.sweep.shape_hit_ratio",
]


def _layer_of(name: str) -> str:
    return max((layer for layer in LAYERS if name.startswith(layer + ".")), key=len)


def _moves_for(name: str) -> List[Tuple[str, List[str]]]:
    if name.endswith(("high_water", "reuse_ratio")) or name.startswith("mem."):
        return _RSS
    if name.startswith("network.fabric.fault_"):
        return _SWEEP
    if name.startswith("trace."):
        return _NONE
    return LAYERS[_layer_of(name)]


def _per_layer() -> List[Tuple[str, str, str, List[Tuple[str, List[str]]]]]:
    out = []
    for layer, moves in LAYERS.items():
        out.append((f"{layer}.self_share", "fraction", "lower", moves))
        out.append((f"{layer}.self_ns_per_event", "ns/event", "lower", moves))
        out.append((f"{layer}.calls_per_event", "1/event", "lower", moves))
    for name, _file, _func in SPANS:
        out.append((name, "s", "lower", _moves_for(name)))
    out.append(("sim.shard.worker_cpu_s", "s", "lower", _SHARD))
    out.append(("sim.shard.worker_rss_mb", "MB", "lower", _SHARD))
    for name in COUNTS:
        out.append((name, "count", "lower", _moves_for(name)))
    for name in RATIOS:
        better = "higher" if name.endswith(("reuse_ratio", "hit_ratio")) else "lower"
        out.append((name, "fraction", better, _moves_for(name)))
    out += [
        # isolated probes: untraced direct calls, no Job run
        ("sim.kernel.floor_ns_per_event", "ns/event", "lower", LAYERS["sim.kernel"]),
        ("harness.runner.construct_us_per_proc", "us/proc", "lower", _SETUP),
        ("harness.store.append_us", "us", "lower", _SWEEP),
        # the simulator's error against the paper, nas-table1 only (0 elsewhere)
        ("apps.overhead_err_pp", "pp", "lower", _NONE),
        # run-level
        ("trace.overhead_x", "x", "lower", _NONE),
        ("trace.calls_per_event", "1/event", "lower", _NONE),
        ("trace.unattributed_share", "fraction", "lower", _NONE),
        ("mem.traced_peak_mb", "MB", "lower", _RSS),
        ("mem.bytes_per_proc", "B/proc", "lower", _RSS),
    ]
    return out


#: (name, unit, better, moves)
PER_LAYER = _per_layer()

E2E_UNITS = {name: unit for name, unit, _b, _bound in END_TO_END}
LAYER_UNITS = {name: unit for name, unit, _b, _m in PER_LAYER}

#: per-layer metrics that must repeat exactly between two runs of one commit:
#: the work counts and each layer's calls per event (the simulator's own
#: functions; ``trace.calls_per_event`` also counts stdlib and C calls, a
#: handful of which come and go between runs)
EXACT = set(COUNTS) | {f"{layer}.calls_per_event" for layer in LAYERS}


def benchmark_json() -> dict:
    """The contract file at the repo root, generated from this module."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b, _m in PER_LAYER],
    }
