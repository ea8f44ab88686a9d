#!/usr/bin/env python
"""Engine benchmark: events/sec and wall-clock on the ablation workloads.

Measures the *host-side* cost of the simulation engine (the pure-Python
event loop, matching, PML, fabric) on deterministic workloads shaped like
the paper's ablations.  Scientific outputs (virtual runtimes) are invariant
under engine optimisation — this harness tracks the perf trajectory and
gates regressions.

Usage::

    PYTHONPATH=src python tools/bench.py              # run, print table
    PYTHONPATH=src python tools/bench.py --quick      # smaller rounds (CI smoke)
    PYTHONPATH=src python tools/bench.py --paper      # 256-rank paper-scale smoke
    PYTHONPATH=src python tools/bench.py --scale      # 1024-rank nightly smoke
    PYTHONPATH=src python tools/bench.py --scale4k    # 4096-rank nightly smoke
    PYTHONPATH=src python tools/bench.py --scale8k    # 8192-rank nightly smoke
    PYTHONPATH=src python tools/bench.py --scale16k   # 16384-rank nightly smoke
    PYTHONPATH=src python tools/bench.py --scale64k   # 65536-rank stretch tier (manual)
    PYTHONPATH=src python tools/bench.py --floor      # machinery-floor microbench
    PYTHONPATH=src python tools/bench.py --workers 4  # add sharded-parallel A/B rows
    PYTHONPATH=src python tools/bench.py --update     # rewrite BENCH_engine.json
    PYTHONPATH=src python tools/bench.py --check      # fail on >20% events/s regression
                                                      # (warn >15% peak-memory growth)
    PYTHONPATH=src python tools/bench.py --baseline LABEL  # record as 'baseline'

``BENCH_engine.json`` (repo root) holds two snapshots: ``baseline`` (the
pre-refactor seed engine) and ``current`` (the engine as committed).
``--check`` compares a fresh run against ``current`` and fails — with a
per-workload delta table — when any workload's events/sec drops below
``(1 - tolerance)`` of the committed number, so future PRs regress against
a measured trajectory, not vibes.  Host speed varies across machines; the
committed numbers are refreshed with ``--update`` whenever the engine
intentionally changes.

Modes: ``full`` (default) and ``quick`` run the four ablation-shaped
workloads at 16 ranks; ``paper`` runs a 256-logical-rank SDR collectives
smoke (512 physical processes under degree-2 replication) — the scale the
paper's testbed measured — to keep collective/large-world costs on the
per-PR gate, not just per-release sweeps; ``scale`` runs the same shape at
**1024 logical ranks** (2048 physical processes, ~4.5x the paper tier's
event count), ``scale4k`` at **4096 logical ranks** (8192 processes,
~1M events — affordable at all only since the two-level event queue) and
``scale8k`` at **8192 logical ranks** (16384 processes, ~2.3M events —
affordable only since the flyweight footprint pass), ``scale16k`` at
**16384 logical ranks** (32768 processes, ~5M events — affordable only
since the run-time working-set pass: int-list match lanes, payload interning,
high-water-trimmed arenas) — all too heavy per-PR, so the scheduled
nightly job in ``.github/workflows/ci.yml`` owns them.  ``scale64k``
(65536 logical ranks, 131072 processes, ~23M events) is the stretch
tier: runnable and recorded in the snapshot, but owned by the *weekly*
scheduled CI shard (sharded-parallel by default, serial ``--repeats 1``
fallback behind a workflow input) because its wall time does not fit the
nightly budget.  ``floor`` runs the machinery-floor microbenchmark from
docs/performance.md — processes yielding CPU charges through a 4-deep
generator chain, i.e. dispatch + generator resume with zero protocol
work — so the snapshot pins the engine's per-event lower bound
explicitly rather than leaving it a prose number.

``--workers N`` (any Job-based mode) measures each workload twice —
serial, then sharded across N fork workers — and records the parallel
run as a ``<name>@wN`` row carrying ``speedup_vs_serial``,
``events_per_sec_per_core`` and the execution shape (shards, windows,
fallback reasons).  Because sharded execution is byte-identical to
serial, the A/B doubles as an equivalence assertion: events, frames and
virtual runtime must match the serial row exactly.  ``--check`` treats
``@wN`` rows *advisorily* (speedup is host-dependent; a slow row warns,
never fails).  ``--update`` without ``--workers`` keeps the mode's
committed ``@wN`` rows (and prints that it did) rather than dropping them.

Every workload runs **once untimed** before the timed repeats: the first
execution pays one-off lazy costs (per-channel pricing state, cost-model
and matching-lane builds, frame/envelope arena warm-up, numpy import
paths) that otherwise double-count into the first repeat's
``host_seconds``; the warmup run also supplies the reference event/frame
counts the determinism assertion checks every timed repeat against.

Memory columns: the untimed warmup runs under ``tracemalloc`` (never the
timed repeats — instrumentation costs 2-4x wall time), recording the
Python-heap peak (``mem_traced_peak_mb``), the same divided by simulated
process count (``mem_bytes_per_proc`` — the footprint number the
flyweight work targets), and the OS-level peak RSS at measurement time
(``mem_rss_peak_mb``; note this is a *process high-water* mark, so in
multi-workload modes later workloads inherit the peak of earlier ones —
compare it per tier, not per workload).  ``--check`` gates memory
*advisorily*: a >15% growth of the traced peak over the committed
snapshot prints a WARNING but never fails the gate (host-dependent
allocator behaviour should not block PRs; sustained growth shows up in
the nightly logs) and prints a per-workload memory delta table (traced
peak + bytes/proc, signed deltas, verdict) mirroring the events/sec gate
table, so the working-set trajectory is greppable from CI logs.

High-water columns: the warmup result also reports the arena high-water
marks the trim policy sizes against — ``env_high_water`` summed over
every PML and the fabric's ``frame_high_water`` — so a tier's snapshot
records how deep the arenas actually ran, not just how much heap the
run touched.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
import tracemalloc
from typing import Any, Callable, Dict

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from repro.core.config import ReplicationConfig  # noqa: E402
from repro.harness.report import parallel_rows, render_table  # noqa: E402
from repro.harness.runner import Job, cluster_for  # noqa: E402
from repro.scenarios import anysource_fanin, ring_collectives  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: snapshot location; BENCH_ENGINE_PATH overrides it so CI can gate a PR
#: against a reference measured on the *same host* (see ci.yml) instead of
#: the committed numbers from whatever machine last ran --update
BENCH_PATH = os.environ.get("BENCH_ENGINE_PATH") or os.path.join(ROOT, "BENCH_engine.json")

#: events/sec regression tolerance for --check (fraction of committed value)
TOLERANCE = 0.20
#: peak-memory growth tolerance for --check (advisory: warn, never fail)
MEM_TOLERANCE = 0.15


# Workloads come from the scenario registry (repro.scenarios) — the same
# anysource_fanin / ring_collectives every ablation driver and sweep runs.
def _run_job(protocol: str, app: Callable, n_ranks: int, workers: int = 0, **kwargs):
    if protocol == "native":
        cfg = ReplicationConfig(degree=1, protocol="native")
    else:
        cfg = ReplicationConfig(degree=2, protocol=protocol)
    parallel = None
    if workers:
        from repro.sim.shard import ParallelConfig

        parallel = ParallelConfig(workers=workers)
    job = Job(n_ranks, cfg=cfg, cluster=cluster_for(n_ranks, cfg.degree), parallel=parallel)
    return job.launch(app, **kwargs).run()


class _FloorResult:
    """Duck-typed ``JobResult`` for the machinery-floor microbenchmark."""

    def __init__(self, events: int, runtime: float, n_procs: int) -> None:
        self.events = events
        self.runtime = runtime
        self.fabric = {"frames": 0, "frame_high_water": 0}
        self.stats = {p: {} for p in range(n_procs)}
        self.payload_interned = 0

    def stat_total(self, key: str) -> int:
        return 0


def _host_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _machinery_floor(n_procs: int = 64, charges: int = 4000) -> _FloorResult:
    """Dispatch + resume alone: the engine's measured machinery floor.

    Processes yield bare CPU charges through a 4-deep generator chain —
    no frames, no matching, no protocol semantics — so the per-event cost
    is the kernel's dispatch loop plus generator resume and nothing else
    (docs/performance.md, "machinery floor", ≈ 1.4 µs/event on the
    reference host).  Per-proc charge periods are staggered so timestamps
    do not all collapse into one batch; the remaining gap between this
    number and the ablation workloads is MPI/protocol semantics the
    determinism contract refuses to elide.
    """
    from repro.sim.kernel import Simulator
    from repro.sim.process import Process

    sim = Simulator()

    def leaf(n: int, period: float):
        for _ in range(n):
            yield period

    def tier2(n: int, period: float):
        yield from leaf(n, period)

    def tier3(n: int, period: float):
        yield from tier2(n, period)

    def chain(n: int, period: float):
        yield from tier3(n, period)

    for p in range(n_procs):
        Process(sim, chain(charges, (97 + 13 * (p % 11)) * 1e-9), name=f"floor{p}")
    sim.run()
    return _FloorResult(sim.events_dispatched, sim.now, n_procs)


def _workloads(mode: str, workers: int = 0) -> Dict[str, Callable[[], Any]]:
    if mode == "floor":
        # The machinery-floor microbenchmark as a first-class tier: its
        # events/sec snapshot pins the dispatch+resume budget every other
        # tier's per-event cost is judged against.
        return {"machinery-floor": lambda: _machinery_floor()}
    if mode == "scale64k":
        # Stretch tier: 65536 logical ranks / 131072 simulated processes,
        # ~23M events.  Runnable since the working-set pass keeps
        # bytes/proc flat, but its wall time (~tens of minutes with the
        # tracemalloc warmup) does not fit the nightly budget — run
        # manually with --repeats 1 and record via --update.
        return {
            "sdr-collectives-65536": lambda: _run_job(
                "sdr", ring_collectives, n_ranks=65536, iters=1, nbytes=4096, workers=workers
            ),
        }
    if mode == "scale16k":
        # 16384 logical ranks / 32768 simulated processes, ~5M events —
        # the tier the run-time working-set pass (int-list match lanes, payload
        # interning, high-water-trimmed arenas) made affordable: before
        # it, per-PML match-lane deques alone held ~15 KB/proc at steady
        # state.  Nightly-only.
        return {
            "sdr-collectives-16384": lambda: _run_job(
                "sdr", ring_collectives, n_ranks=16384, iters=1, nbytes=4096, workers=workers
            ),
        }
    if mode == "scale8k":
        # 8192 logical ranks / 16384 simulated processes, ~2.3M events —
        # the tier the flyweight footprint pass (shared cost tables, slim
        # PML/protocol state, shared world communicator) made affordable:
        # the seed-shaped per-proc construction alone would hold multiple
        # GB of identical state at this scale.  Nightly-only.
        return {
            "sdr-collectives-8192": lambda: _run_job(
                "sdr", ring_collectives, n_ranks=8192, iters=1, nbytes=4096, workers=workers
            ),
        }
    if mode == "scale4k":
        # The 4096-logical-rank (8192-process) tier the ROADMAP called
        # unaffordable before the queue machinery changed: one collective
        # ring iteration is 13 recursive-doubling rounds across the whole
        # world, ~1M events.  Nightly-only, alongside --scale.
        return {
            "sdr-collectives-4096": lambda: _run_job(
                "sdr", ring_collectives, n_ranks=4096, iters=1, nbytes=4096, workers=workers
            ),
        }
    if mode == "scale":
        # Nightly-scale smoke: 1024 logical ranks / 2048 physical
        # processes under degree-2 SDR — one collective ring iteration is
        # 11 recursive-doubling rounds across the whole world, ~4.5x the
        # event count of the paper tier (heap depth grows log-linearly).
        # Too heavy to gate per-PR; the nightly workflow runs it so scale
        # regressions surface within a day instead of at release time.
        return {
            "sdr-collectives-1024": lambda: _run_job(
                "sdr", ring_collectives, n_ranks=1024, iters=2, nbytes=4096, workers=workers
            ),
        }
    if mode == "paper":
        # Paper-scale smoke: 256 logical ranks (the testbed's scale), 512
        # physical processes under degree-2 SDR.  Collectives dominate —
        # each allreduce is 8 recursive-doubling rounds across the whole
        # world — which is exactly the traffic the replication protocols
        # stress hardest.  Kept to a few iterations so the gate stays
        # affordable per-PR.
        return {
            "sdr-collectives-256": lambda: _run_job(
                "sdr", ring_collectives, n_ranks=256, iters=2, nbytes=4096, workers=workers
            ),
        }
    quick = mode == "quick"
    rounds = 30 if quick else 100
    iters = 15 if quick else 40
    return {
        # The tentpole target: leader-based replication inflates the
        # unexpected queue (§3.1) — historically quadratic in the linear
        # matching engine.
        "leader-anysource": lambda: _run_job(
            "leader", anysource_fanin, n_ranks=16, rounds=rounds, workers=workers
        ),
        "sdr-anysource": lambda: _run_job(
            "sdr", anysource_fanin, n_ranks=16, rounds=rounds, workers=workers
        ),
        "native-anysource": lambda: _run_job(
            "native", anysource_fanin, n_ranks=16, rounds=rounds, workers=workers
        ),
        "sdr-collectives": lambda: _run_job(
            "sdr", ring_collectives, n_ranks=16, iters=iters, workers=workers
        ),
    }


# --------------------------------------------------------------- measuring
def _rss_peak_mb() -> float:
    """OS-level peak RSS (process high-water mark) in MB."""
    # ru_maxrss is KB on Linux, bytes on macOS.
    maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    scale = 1024.0 if sys.platform != "darwin" else 1.0
    return round(maxrss * scale / 1e6, 2)


def measure(fn: Callable[[], Any], repeats: int = 3) -> Dict[str, Any]:
    """Best-of-*repeats* host time; asserts run-to-run determinism.

    The first call is an **untimed warmup**: lazy one-off work (pricing
    state, matching lanes, object arenas, import side effects) would
    otherwise double-count into the first repeat's ``host_seconds`` and —
    with small repeat counts — survive the best-of filter.  The warmup's
    event/frame counts and virtual runtime become the reference every
    timed repeat must reproduce exactly.

    The warmup also doubles as the **memory probe**: it runs under
    ``tracemalloc`` (2-4x slower — which is why the timed repeats never
    do), capturing the Python-heap peak and the per-simulated-process
    footprint next to the events/sec columns.
    """
    tracemalloc.start()
    warm = fn()
    _cur, traced_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    events, frames, runtime = warm.events, warm.fabric["frames"], warm.runtime
    n_procs = len(warm.stats)
    best = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        res = fn()
        dt = time.perf_counter() - t0
        assert res.events == events, "non-deterministic event count!"
        assert res.fabric["frames"] == frames, "non-deterministic frame count!"
        assert res.runtime == runtime, "non-deterministic virtual runtime!"
        if best is None or dt < best:
            best = dt
    row = {
        "host_seconds": round(best, 6),
        "events": events,
        "events_per_sec": round(events / best, 1),
        "virtual_runtime": runtime,
        "total_frames": frames,
        "n_procs": n_procs,
        "mem_traced_peak_mb": round(traced_peak / 1e6, 2),
        "mem_bytes_per_proc": round(traced_peak / n_procs) if n_procs else 0,
        "mem_rss_peak_mb": _rss_peak_mb(),
        # Arena high-water marks from the warmup run: what the trim policy
        # sizes the free lists against (docs/performance.md).
        "env_high_water": int(warm.stat_total("env_high_water")),
        "frame_high_water": int(warm.fabric.get("frame_high_water", 0)),
        "payload_interned": int(warm.payload_interned),
    }
    meta = getattr(warm, "parallel", None)
    if meta is not None:
        # Sharded run: record the execution shape next to the timing so the
        # snapshot says *how* the number was produced (shard count, window
        # count, any recorded serial-fallback reasons).  Note the memory
        # columns for parallel rows see only the parent process — the
        # per-shard working sets live in the fork workers.
        row["parallel"] = {
            "workers": meta.get("workers"),
            "shards": meta.get("shards"),
            "windows": meta.get("windows"),
            "fallback": list(meta.get("fallback") or ()),
            # Interpretation key for the speedup column: fork workers can
            # only beat serial when the host actually grants them cores.
            # On a 1-core host the @wN row measures the pure sharding tax
            # (window sync + relay pickling), not parallel speedup.
            "host_cores": _host_cores(),
        }
    return row


def run_suite(mode: str, repeats: int = 3, workers: int = 0) -> Dict[str, Dict[str, Any]]:
    out: Dict[str, Dict[str, Any]] = {}
    par = _workloads(mode, workers=workers) if workers and mode != "floor" else {}
    for name, fn in _workloads(mode).items():
        out[name] = measure(fn, repeats=repeats)
        print(
            f"  {name:<20s} {out[name]['events_per_sec']:>12,.0f} ev/s   "
            f"{out[name]['host_seconds'] * 1e3:>8.1f} ms   "
            f"{out[name]['events']:>9,d} events   "
            f"{out[name]['mem_traced_peak_mb']:>7.1f} MB peak   "
            f"{out[name]['mem_bytes_per_proc']:>7,d} B/proc   "
            f"hw e/f {out[name]['env_high_water']:,d}/{out[name]['frame_high_water']:,d}"
        )
        pfn = par.get(name)
        if pfn is None:
            continue
        # Serial-vs-parallel A/B on the identical workload.  The byte-
        # identical contract makes this an *equivalence check as well as a
        # timing*: events, frames and virtual runtime must match the
        # serial row exactly or the sharded engine is wrong, not slow.
        pname = f"{name}@w{workers}"
        prow = measure(pfn, repeats=repeats)
        for key in ("events", "total_frames", "virtual_runtime"):
            assert prow[key] == out[name][key], (
                f"{pname}: parallel run diverged from serial on {key}: "
                f"{prow[key]!r} != {out[name][key]!r}"
            )
        meta = prow.get("parallel") or {}
        shards = meta.get("shards") or 1
        prow["workers"] = workers
        prow["speedup_vs_serial"] = round(
            prow["events_per_sec"] / out[name]["events_per_sec"], 2
        )
        prow["events_per_sec_per_core"] = round(prow["events_per_sec"] / shards, 1)
        out[pname] = prow
        fb = meta.get("fallback") or []
        shape = (
            f"{shards} shards / {meta.get('windows', 0)} windows"
            if not fb
            else "serial fallback: " + "; ".join(fb)
        )
        print(
            f"  {pname:<20s} {prow['events_per_sec']:>12,.0f} ev/s   "
            f"{prow['speedup_vs_serial']:>5.2f}x vs serial   "
            f"{prow['events_per_sec_per_core']:>10,.0f} ev/s/core   [{shape}]"
        )
    p_header, p_rows = parallel_rows(list(out.items()))
    if p_rows:
        print()
        print(render_table("sharded execution", p_header, p_rows))
    return out


def load_record() -> Dict[str, Any]:
    if os.path.exists(BENCH_PATH):
        with open(BENCH_PATH) as fh:
            return json.load(fh)
    return {"schema": 1}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--quick", action="store_true", help="smaller rounds (CI smoke)")
    ap.add_argument("--paper", action="store_true", help="256-rank paper-scale smoke")
    ap.add_argument("--scale", action="store_true", help="1024-rank nightly-scale smoke")
    ap.add_argument("--scale4k", action="store_true", help="4096-rank nightly-scale smoke")
    ap.add_argument("--scale8k", action="store_true", help="8192-rank nightly-scale smoke")
    ap.add_argument("--scale16k", action="store_true", help="16384-rank nightly-scale smoke")
    ap.add_argument(
        "--scale64k", action="store_true", help="65536-rank stretch tier (manual; use --repeats 1)"
    )
    ap.add_argument(
        "--floor", action="store_true", help="machinery-floor microbench (dispatch+resume only)"
    )
    ap.add_argument(
        "--workers",
        type=int,
        default=0,
        metavar="N",
        help="also measure each workload sharded across N fork workers "
        "(adds '<name>@wN' rows with speedup and ev/s/core; advisory in --check)",
    )
    ap.add_argument("--check", action="store_true", help="fail on >20%% ev/s regression")
    ap.add_argument("--update", action="store_true", help="rewrite the 'current' snapshot")
    ap.add_argument("--baseline", metavar="LABEL", help="record this run as 'baseline'")
    ap.add_argument("--repeats", type=int, default=3)
    args = ap.parse_args(argv)

    exclusive = [
        flag
        for flag in (
            "quick",
            "paper",
            "scale",
            "scale4k",
            "scale8k",
            "scale16k",
            "scale64k",
            "floor",
        )
        if getattr(args, flag)
    ]
    if len(exclusive) > 1:
        ap.error("--" + " and --".join(exclusive) + " are mutually exclusive")
    mode = exclusive[0] if exclusive else "full"
    if args.workers and mode == "floor":
        ap.error("--workers does not apply to --floor (no Job, nothing to shard)")
    if args.workers < 0:
        ap.error("--workers must be >= 0")
    tag = f", workers={args.workers}" if args.workers else ""
    print(f"engine bench ({mode}, best of {args.repeats}, 1 warmup{tag}):")
    results = run_suite(mode, repeats=args.repeats, workers=args.workers)

    record = load_record()
    if args.baseline:
        snap = record.setdefault("baseline", {"label": args.baseline, "modes": {}})
        snap["label"] = args.baseline
        snap.setdefault("modes", {})[mode] = results
        with open(BENCH_PATH, "w") as fh:
            json.dump(record, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"baseline ({mode}) recorded -> {BENCH_PATH}")
        return 0

    if args.update:
        snap = record.setdefault("current", {"label": "committed engine", "modes": {}})
        modes = snap.setdefault("modes", {})
        if not args.workers:
            # A run without --workers measures no '<name>@wN' row: keep the
            # mode's committed ones instead of replacing them with nothing.
            kept = {name: row for name, row in modes.get(mode, {}).items() if "@w" in name}
            results.update(kept)
            if kept:
                print(f"kept committed parallel rows (no --workers): {', '.join(sorted(kept))}")
        modes[mode] = results
        # Tiers are refreshed at different times on different machines: say
        # per mode which host (and how many usable cores) produced the row.
        snap.setdefault("hosts", {})[mode] = {
            "machine": platform.machine(),
            "system": platform.system(),
            "python": platform.python_version(),
            "cores": _host_cores(),
        }
        base = record.get("baseline", {}).get("modes", {}).get(mode, {})
        if base:
            record.setdefault("speedup_vs_baseline", {})[mode] = {
                name: round(results[name]["events_per_sec"] / base[name]["events_per_sec"], 2)
                for name in results
                if name in base
            }
        with open(BENCH_PATH, "w") as fh:
            json.dump(record, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"current snapshot ({mode}) updated -> {BENCH_PATH}")
        return 0

    if args.check:
        # A brand-new tier has no snapshot to gate against: fail loudly
        # with the fix spelled out instead of comparing against nothing
        # (or KeyError-ing) — a gate that silently passes on a missing
        # reference is how regressions in new tiers would go unnoticed.
        mode_flag = "" if mode == "full" else f"--{mode} "
        committed = (record.get("current") or {}).get("modes", {}).get(mode)
        if not committed:
            print(
                f"bench --check: no committed 'current' snapshot for mode {mode!r} "
                f"in {BENCH_PATH} — record one first:\n"
                f"  python tools/bench.py {mode_flag}--update",
                file=sys.stderr,
            )
            return 2
        # Per-workload delta table: the gate's verdict should be readable
        # at a glance from CI logs, not reverse-engineered from an exit
        # code and a wall of numbers.
        failed = []
        missing = []
        mem_warned = []
        header = (
            f"  {'workload':<22s} {'fresh ev/s':>12s} {'committed':>12s} "
            f"{'delta':>8s} {'floor':>12s}  verdict"
        )
        print(header)
        print("  " + "-" * (len(header) - 2))
        for name, res in results.items():
            # Parallel '@wN' rows gate *advisorily*: multi-core speedup is
            # far more host-dependent (core count, fork cost, scheduler)
            # than single-thread events/sec, and the equivalence half of
            # the A/B already hard-asserted in run_suite.  A slow parallel
            # row prints a warning verdict but never fails the gate.
            advisory = "@w" in name
            ref = committed.get(name)
            if ref is None:
                if advisory:
                    print(
                        f"  {name:<22s} {res['events_per_sec']:>12,.0f} {'(missing)':>12s} "
                        f"{'':>8s} {'':>12s}  no snapshot (advisory)"
                    )
                    continue
                # A workload with no committed number cannot be gated —
                # that is a failure of the snapshot, not a free pass.
                print(
                    f"  {name:<22s} {res['events_per_sec']:>12,.0f} {'(missing)':>12s} "
                    f"{'':>8s} {'':>12s}  NO SNAPSHOT"
                )
                missing.append(name)
                continue
            floor = (1.0 - TOLERANCE) * ref["events_per_sec"]
            delta = res["events_per_sec"] / ref["events_per_sec"] - 1.0
            ok = res["events_per_sec"] >= floor
            verdict = "ok" if ok else ("SLOW (advisory)" if advisory else "REGRESSION")
            print(
                f"  {name:<22s} {res['events_per_sec']:>12,.0f} "
                f"{ref['events_per_sec']:>12,.0f} {delta:>+7.1%} {floor:>12,.0f}  "
                f"{verdict}"
            )
            if not ok and not advisory:
                failed.append(name)
            ref_mem = ref.get("mem_traced_peak_mb")
            fresh_mem = res.get("mem_traced_peak_mb")
            if ref_mem and fresh_mem and fresh_mem > ref_mem * (1.0 + MEM_TOLERANCE):
                mem_warned.append((name, fresh_mem, ref_mem))
        # Advisory memory delta table, mirroring the events/sec gate table
        # above: traced peak and bytes/proc, fresh vs committed with
        # signed deltas and a verdict column.  Purely advisory — allocator
        # and host variance should never block a PR — but readable and
        # greppable from CI logs, so working-set drift cannot rot
        # silently between --update refreshes.
        mem_rows = [
            (name, res, committed.get(name))
            for name, res in results.items()
            if committed.get(name) and committed[name].get("mem_traced_peak_mb")
        ]
        if mem_rows:
            mem_header = (
                f"  {'workload':<22s} {'fresh MB':>9s} {'cmtd MB':>9s} {'delta':>8s} "
                f"{'fresh B/p':>10s} {'cmtd B/p':>10s} {'delta':>8s}  verdict (advisory)"
            )
            print(mem_header)
            print("  " + "-" * (len(mem_header) - 2))
            for name, res, ref in mem_rows:
                d_peak = res["mem_traced_peak_mb"] / ref["mem_traced_peak_mb"] - 1.0
                ref_bpp = ref.get("mem_bytes_per_proc") or 0
                bpp = res.get("mem_bytes_per_proc") or 0
                d_bpp = (bpp / ref_bpp - 1.0) if ref_bpp else 0.0
                verdict = "MEM GREW" if d_peak > MEM_TOLERANCE else "ok"
                print(
                    f"  {name:<22s} {res['mem_traced_peak_mb']:>9.1f} "
                    f"{ref['mem_traced_peak_mb']:>9.1f} {d_peak:>+7.1%} "
                    f"{bpp:>10,d} {ref_bpp:>10,d} {d_bpp:>+7.1%}  {verdict}"
                )
        for name, fresh_mem, ref_mem in mem_warned:
            print(
                f"WARNING: {name}: traced peak memory {fresh_mem:.1f} MB is "
                f"{fresh_mem / ref_mem - 1.0:+.0%} vs committed {ref_mem:.1f} MB "
                f"(> {MEM_TOLERANCE:.0%} — advisory only, not gating; refresh with "
                f"--update if intentional)",
                file=sys.stderr,
            )
        if missing:
            print(
                f"bench --check: workload(s) missing from the committed {mode!r} "
                f"snapshot: {', '.join(missing)} — record them first:\n"
                f"  python tools/bench.py {mode_flag}--update",
                file=sys.stderr,
            )
        if failed:
            print(
                f"events/sec regression (> {TOLERANCE:.0%} below committed) in: "
                f"{', '.join(failed)}",
                file=sys.stderr,
            )
        if failed or missing:
            return 1
        print(f"bench check passed ({mode}: all workloads within {TOLERANCE:.0%} of committed)")
        return 0

    base = record.get("baseline", {}).get("modes", {}).get(mode, {})
    for name, res in results.items():
        if name in base:
            speed = res["events_per_sec"] / base[name]["events_per_sec"]
            print(f"  {name:<20s} {speed:5.2f}x vs baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
