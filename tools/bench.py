#!/usr/bin/env python
"""Engine tier table: events/sec and memory of the engine from 16 to 65,536 ranks.

A thin table over ``perf/sdrperf``, which does all the measuring.  Each
tier is a ``JobWorkload`` and each of its ``JobSpec``s one row, measured
the way ``perf/run.py`` measures a workload (``sdrperf.measure``): an
untimed warm-up pass is the reference every timed pass must reproduce, and
every timing is the median of whole passes (construction, run and audit)
reported at the reference host speed (``sdrperf.hostspeed``).  This file
keeps what ``perf/`` lacks: the tiers, ``@wN`` rows, the traced memory
columns, and the committed snapshot that ``--check`` gates against.

Usage::

    python tools/bench.py --tier quick                         # measure, print
    python tools/bench.py --tier quick paper --check           # gate against the snapshot
    python tools/bench.py --tier scale --workers 4 --update    # re-record, with @w4 rows

``full``/``quick`` run the four 16-rank ablation shapes (§3.1 any-source
fan-in under leader, sdr and native, and a collective ring); ``paper`` to
``scale64k`` run the ring under degree-2 SDR at 256 to 65,536 logical
ranks; ``floor`` is ``traced.probe_floor``, the per-event lower bound.

``--workers N`` adds each row sharded across N fork workers as ``<row>@wN``
(advisory in ``--check``; ``RowWorkload`` says how it is checked).
``--update`` keeps the committed ``@wN`` rows when run without
``--workers`` and stores on each serial row a ``layers`` block that
``--check`` does not read.  ``BENCH_ENGINE_PATH`` names a snapshot other
than ``BENCH_engine.json`` (CI's re-measured merge-base).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import statistics
import sys
from typing import Any, Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "perf"), os.path.join(ROOT, "src")]

from repro.harness.report import parallel_rows, render_table  # noqa: E402
from repro.scenarios import anysource_fanin, ring_collectives  # noqa: E402
from sdrperf import hostspeed, measure, traced  # noqa: E402
from sdrperf.spec import LAYERS  # noqa: E402
from sdrperf.workloads import JobSpec, JobWorkload, _triangle  # noqa: E402

BENCH_PATH = os.environ.get("BENCH_ENGINE_PATH") or os.path.join(ROOT, "BENCH_engine.json")
#: events/sec regression tolerance of --check.  Ten back-to-back ``--tier
#: quick`` runs on one host spread up to 0.10 (0.18 at 3 passes); CI gates
#: across hosts and Python versions nobody has measured, so it stays at 0.20
#: (docs/performance.md, "How CI gates your PR")
TOLERANCE = 0.20
#: traced-peak growth --check warns about (advisory: never fails)
MEM_TOLERANCE = 0.15
SEED = 0
Row = Dict[str, Any]


def _ablation(name: str, rounds: int, iters: int) -> JobWorkload:
    fanin = [
        JobSpec(f"{p}-anysource", p, 16, anysource_fanin, {"rounds": rounds}, expected=_triangle(16, rounds))
        for p in ("leader", "sdr", "native")
    ]
    total = _triangle(16, iters)
    ring = JobSpec("sdr-collectives", "sdr", 16, ring_collectives, {"iters": iters}, expected=total)
    return JobWorkload(name, fanin + [ring])


def _ring(name: str, n_ranks: int, iters: int) -> JobWorkload:
    label, kwargs = f"sdr-collectives-{n_ranks}", {"iters": iters, "nbytes": 4096}
    spec = JobSpec(label, "sdr", n_ranks, ring_collectives, kwargs, expected=_triangle(n_ranks, iters))
    return JobWorkload(name, [spec])


#: every Job tier; ``floor`` is not a Job and has no entry.  The scale
#: tiers exist because the engine's events/sec falls with the world size
#: and perf/ stops at 1,024 ranks.
TIERS: Dict[str, JobWorkload] = {
    w.name: w
    for w in (
        _ablation("full", rounds=100, iters=40),
        _ablation("quick", rounds=30, iters=15),
        _ring("paper", 256, iters=2),
        _ring("scale", 1024, iters=2),
        _ring("scale4k", 4096, iters=1),
        _ring("scale8k", 8192, iters=1),
        _ring("scale16k", 16384, iters=1),
        _ring("scale64k", 65536, iters=1),
    )
}


class RowWorkload(JobWorkload):
    """One row: a one-spec workload that keeps its warm-up pass (the row's
    simulated statistics) and the shard shape of its last pass.  A sharded
    spec keeps its serial row's label and reuses that row's warm-up as the
    reference its fingerprint must equal.  A run that fell back to serial
    measures fork + taint + rerun, not sharding: it writes no row."""

    def __init__(self, spec: JobSpec, serial: Optional["RowWorkload"] = None) -> None:
        super().__init__(spec.label, [spec])
        self.serial = serial
        self.shape: Optional[Dict[str, Any]] = None

    def warm_up(self, seed: int):
        if self.serial is None:
            self.reference = super().warm_up(seed)
        else:
            self.reference, self._serial_fp = self.serial.reference, self.serial._serial_fp
        return self.reference

    def _run(self, seed: int) -> List[Any]:
        outcomes = super()._run(seed)
        self.shape = getattr(outcomes[0], "parallel", None)
        return outcomes


def _host_cores() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _layers(workload: RowWorkload) -> Dict[str, Dict[str, float]]:
    p, stats = traced.profile_pass(workload, SEED)
    self_s, calls, _unattributed, total_s, _calls = traced.attribute(stats)
    return {
        layer: {
            "self_share": round(self_s[layer] / total_s, 4),
            "calls_per_event": round(calls[layer] / p.events, 4),
        }
        for layer in LAYERS
    }


def measure_row(workload: RowWorkload, repeats: int, layers: bool = False) -> Optional[Row]:
    """One row: medians over *repeats* timed passes; None when a sharded
    spec fell back to serial execution.  Raises on any failed operation."""
    (spec,) = workload.specs
    samples, raw, _attempted, failures = measure.measure(workload, SEED, 0.0, None, repeats)
    fallback = (workload.shape or {}).get("fallback")
    if spec.workers and fallback:
        name = f"{spec.label}@w{spec.workers}"
        print(f"  {name:<24s} no row: the sharded run fell back to serial: {'; '.join(fallback)}")
        return None
    if failures:
        raise RuntimeError(f"{spec.label}: " + "; ".join(failures))
    job = workload.reference.stats["jobs"][0]
    row: Row = {
        "host_seconds": round(statistics.median(samples["wall_s"]), 6),
        "events_per_sec": round(statistics.median(samples["events_per_sec"]), 1),
        "setup_seconds": round(statistics.median(samples["setup_s"]), 6),
        "host_speed": round(statistics.median(raw["host_speed"]), 3),
        "events": job["events"],
        "total_frames": job["frames"],
        "virtual_runtime": float(job["runtime"]),
    }
    if spec.workers:
        row["parallel"] = {key: workload.shape[key] for key in ("workers", "shards", "windows")}
        # fork workers can only beat serial on cores the host grants
        row["parallel"].update(fallback=[], host_cores=_host_cores())
        return row
    counts = workload.reference.counts
    peak_mb, per_proc = traced.traced_memory(workload, SEED)
    row.update(
        n_procs=spec.n_ranks * (1 if spec.protocol == "native" else 2),
        mem_traced_peak_mb=round(peak_mb, 2),
        mem_bytes_per_proc=round(per_proc),
        # a process high-water mark: later rows of a run inherit earlier peaks
        mem_rss_peak_mb=round(measure.peak_rss_mb(), 2),
        frame_high_water=int(counts["network.fabric.frame_high_water"]),
        payload_interned=int(counts["mpi.api.payload_interned"]),
    )
    if layers:
        row["layers"] = _layers(workload)
    return row


def measure_floor(repeats: int) -> Row:
    """``traced.probe_floor`` at the reference host speed, median of *repeats*.
    The probe times itself and returns only a rate, so the host is sampled
    just before and after it: a sample inside could not be subtracted."""
    ns, speeds = [], []
    for _ in range(repeats):
        with hostspeed.Sampler(during=False) as host:
            raw_ns = traced.probe_floor(n_procs=64, charges=4000)
        ns.append(raw_ns * host.speed)
        speeds.append(host.speed)
    per_event = statistics.median(ns)
    return {
        "ns_per_event": round(per_event, 1),
        "events_per_sec": round(1e9 / per_event, 1),
        "host_speed": round(statistics.median(speeds), 3),
    }


def _print_row(name: str, row: Row) -> None:
    line = f"  {name:<24s} {row['events_per_sec']:>12,.0f} ev/s  host x{row['host_speed']:.2f}"
    if "host_seconds" in row:
        line += f"  {row['host_seconds'] * 1e3:>9.1f} ms  {row['events']:>10,d} events"
    if "mem_traced_peak_mb" in row:
        line += f"  {row['mem_traced_peak_mb']:>8.1f} MB peak  {row['mem_bytes_per_proc']:>7,d} B/proc"
    if "speedup_vs_serial" in row:
        line += f"  {row['speedup_vs_serial']:.2f}x vs serial"
    print(line)


def measure_tier(name: str, repeats: int, workers: int, layers: bool) -> Dict[str, Row]:
    if name == "floor":
        floor = measure_floor(repeats)
        _print_row("machinery-floor", floor)
        return {"machinery-floor": floor}
    out: Dict[str, Row] = {}
    for spec in TIERS[name].specs:
        workload = RowWorkload(spec)
        serial = out[spec.label] = measure_row(workload, repeats, layers)
        _print_row(spec.label, serial)
        if not workers:
            continue
        label = f"{spec.label}@w{workers}"
        row = measure_row(RowWorkload(dataclasses.replace(spec, workers=workers), serial=workload), repeats)
        if row is None:
            continue
        row["workers"] = workers
        row["speedup_vs_serial"] = round(serial["host_seconds"] / row["host_seconds"], 2)
        row["events_per_sec_per_core"] = round(row["events_per_sec"] / row["parallel"]["shards"], 1)
        out[label] = row
        _print_row(label, row)
    header, rows = parallel_rows(list(out.items()))
    if rows:
        print(render_table("sharded execution", header, rows))
    return out


def load_record() -> Dict[str, Any]:
    if os.path.exists(BENCH_PATH):
        with open(BENCH_PATH) as fh:
            return json.load(fh)
    return {"schema": 1}


def update(results: Dict[str, Dict[str, Row]], record: Dict[str, Any], workers: int) -> int:
    snap = record.setdefault("current", {"label": "committed engine", "modes": {}})
    for tier, rows in results.items():
        # tiers are re-recorded at different times: say which host made each
        speed = statistics.median(row["host_speed"] for row in rows.values())
        snap.setdefault("hosts", {})[tier] = {
            "machine": platform.machine(),
            "system": platform.system(),
            "python": platform.python_version(),
            "cores": _host_cores(),
            "host_speed": round(speed, 3),
        }
        if not workers:
            # a run without --workers measures no '@wN' row: keep the committed ones
            kept = {name: row for name, row in snap["modes"].get(tier, {}).items() if "@w" in name}
            if kept:
                print(f"kept committed parallel rows (no --workers): {', '.join(sorted(kept))}")
            rows = {**rows, **kept}
        snap["modes"][tier] = rows
    with open(BENCH_PATH, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"current snapshot ({', '.join(results)}) updated -> {BENCH_PATH}")
    return 0


def check(results: Dict[str, Dict[str, Row]], record: Dict[str, Any]) -> int:
    """Fail when a serial row's events/sec is more than TOLERANCE below the
    snapshot, or has no snapshot to gate against; ``@wN`` rows and memory
    growth only warn."""
    modes = record.get("current", {}).get("modes", {})
    failed: List[str] = []
    missing: List[str] = []
    print(
        f"  {'tier/row':<32s} {'fresh ev/s':>12s} {'committed':>12s} {'delta':>8s} {'floor':>12s}"
        f"  {'verdict':<16s} traced MB (delta, advisory)"
    )
    for tier, rows in results.items():
        committed = modes.get(tier)
        if not committed:
            missing.append(tier)
            continue
        for name, row in rows.items():
            advisory = "@w" in name
            ref = committed.get(name)
            fresh = f"  {tier + '/' + name:<32s} {row['events_per_sec']:>12,.0f}"
            if ref is None:
                print(f"{fresh} {'(missing)':>12s} {'':>21s}  {'advisory' if advisory else 'NO SNAPSHOT'}")
                if not advisory:
                    missing.append(f"{tier}/{name}")
                continue
            floor = (1.0 - TOLERANCE) * ref["events_per_sec"]
            delta = row["events_per_sec"] / ref["events_per_sec"] - 1.0
            ok = row["events_per_sec"] >= floor
            verdict = "ok" if ok else ("SLOW (advisory)" if advisory else "REGRESSION")
            mem = ""
            if row.get("mem_traced_peak_mb") and ref.get("mem_traced_peak_mb"):
                grew = row["mem_traced_peak_mb"] / ref["mem_traced_peak_mb"] - 1.0
                mem = f"{row['mem_traced_peak_mb']:.1f} ({grew:+.1%})" + " MEM GREW" * (grew > MEM_TOLERANCE)
            committed_evs = f"{ref['events_per_sec']:>12,.0f} {delta:>+7.1%} {floor:>12,.0f}"
            print(f"{fresh} {committed_evs}  {verdict:<16s} {mem}")
            if not ok and not advisory:
                failed.append(f"{tier}/{name}")
    if missing:
        tiers = " ".join(sorted({m.split("/")[0] for m in missing}))
        print(
            f"bench --check: nothing committed in {BENCH_PATH} for {', '.join(missing)}"
            f" - record it first:\n  python tools/bench.py --tier {tiers} --update",
            file=sys.stderr,
        )
        return 2
    if failed:
        print(f"events/sec > {TOLERANCE:.0%} below committed in: {', '.join(failed)}", file=sys.stderr)
        return 1
    print(f"bench check passed ({', '.join(results)}: every row within {TOLERANCE:.0%} of committed)")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    names = [*TIERS, "floor"]
    ap.add_argument(
        "--tier", nargs="+", default=["full"], choices=names, metavar="NAME", help=" ".join(names)
    )
    ap.add_argument("--workers", type=int, default=0, metavar="N", help="add '<row>@wN' rows, N fork workers")
    ap.add_argument("--check", action="store_true", help=f"fail on a > {TOLERANCE:.0%}% events/sec drop")
    ap.add_argument("--update", action="store_true", help="rewrite the tiers' rows in the snapshot")
    ap.add_argument("--repeats", type=int, default=5, help="timed passes per row (default 5)")
    args = ap.parse_args(argv)
    if args.workers < 0 or args.repeats < 1:
        ap.error("--workers must be >= 0 and --repeats >= 1")
    results = {}
    for tier in args.tier:
        tag = f", @w{args.workers} rows" if args.workers and tier in TIERS else ""
        print(f"engine bench ({tier}: median of {args.repeats} passes at reference host speed{tag}):")
        results[tier] = measure_tier(tier, args.repeats, args.workers, layers=args.update)
    record = load_record()
    if args.update:
        return update(results, record, args.workers)
    if args.check:
        return check(results, record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
