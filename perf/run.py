#!/usr/bin/env python3
"""The repo's benchmark.  One command prints every metric by name and unit.

    python3 perf/run.py                      # all six workloads: end-to-end + layer table
    python3 perf/run.py --out A.json         # ... and keep the numbers (perf/compare.py A B)
    python3 perf/run.py --smoke              # tiny sizes, seconds (what tier-1 runs)
    python3 perf/run.py --workload coll-1k --seed 3 --seconds 10 --trace 0
    python3 perf/run.py --workload coll-1k --trace 1      # the traced pass only
    python3 perf/run.py --write-expected     # re-record perf/expected.json (seed 0)
    python3 perf/run.py --write-benchmark    # regenerate BENCHMARK.json from sdrperf/spec.py

With ``--workload`` the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
(``--trace 0``, measured with tracing off) or the per-layer metrics
(``--trace 1``).  Without it, each workload runs in a fresh subprocess of
this script — twice, untraced then traced — so peak RSS and GC state are
per workload.  See perf/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from sdrperf import ROOT, add_src_to_path, spec  # noqa: E402


def run_one(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """Measure one workload in this process; returns the result object plus detail."""
    add_src_to_path()
    from sdrperf import measure, traced, workloads

    workload = workloads.make(name, smoke)
    if trace:
        values, traced_pass, failures = traced.layer_table(workload, seed, smoke)
        attempted = 3 * traced_pass.ops  # warm-up, untraced and traced pass
        metrics = {k: {"value": v, "unit": spec.LAYER_UNITS[k]} for k, v in values.items()}
        samples, raw = {}, {}
    else:
        expected = measure.load_expected().get(name) if seed == 0 and not smoke else None
        samples, raw, attempted, failures = measure.measure(
            workload, seed, seconds, expected, min_passes=1 if smoke else measure.MIN_PASSES
        )
        metrics = measure.medians(samples, spec.E2E_UNITS)
    failed = min(len(failures), attempted)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "detail": {"samples": samples, "as_measured": raw, "failures": failures[:20]},
    }


def print_metrics(title: str, result: dict) -> None:
    print(title)
    for name, m in result["metrics"].items():
        vals = result["detail"]["samples"].get(name, ())
        spread = f"  (min {min(vals):.6g} max {max(vals):.6g} n {len(vals)})" if len(vals) > 1 else ""
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}{spread}")
    for name, vals in result["detail"]["as_measured"].items():
        spread = f"(min {min(vals):.6g} max {max(vals):.6g})"
        print(f"  as measured: {name:<27} {statistics.median(vals):>14.6g}  {spread}")
    for line in result["detail"]["failures"]:
        print(f"  FAILED: {line}")


def child(args) -> int:
    result = run_one(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    kind = "per-layer (traced pass)" if args.trace else "end-to-end (tracing off)"
    print_metrics(f"{args.workload} seed {args.seed}: {kind}", result)
    print("detail " + json.dumps(result.pop("detail")))
    print(json.dumps(result))
    return 0


def spawn(name: str, args, trace: int) -> dict:
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed)]
    cmd += ["--seconds", str(args.seconds), "--trace", str(trace)] + (["--smoke"] if args.smoke else [])
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2 or not lines[-2].startswith("detail "):
        sys.stdout.write(proc.stdout)
        raise SystemExit(f"perf/run.py: workload {name} (trace {trace}) exited with {proc.returncode}")
    sys.stdout.write("\n".join(lines[:-2]) + "\n")
    result = json.loads(lines[-1])
    result["detail"] = json.loads(lines[-2][len("detail "):])
    return result


def host() -> dict:
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {"nproc": cores, "python": platform.python_version(), "machine": platform.machine()}


def run_all(args) -> int:
    out = {
        "host": host(),
        "seed": args.seed,
        "seconds": args.seconds,
        "sizes": spec.SIZES["smoke" if args.smoke else "full"],
        "workloads": {},
    }
    ok = True
    for name in spec.WORKLOADS:
        e2e, layers = spawn(name, args, 0), spawn(name, args, 1)
        ok = ok and e2e["correct"] and layers["correct"]
        out["workloads"][name] = {"end_to_end": e2e, "per_layer": layers}
    print("\nsummary (medians, tracing off)")
    names = [n for n, _u, _b, _bound in spec.END_TO_END]
    print(f"  {'workload':<14}" + "".join(f"{n:>16}" for n in names))
    for name, res in out["workloads"].items():
        vals = res["end_to_end"]["metrics"]
        print(f"  {name:<14}" + "".join(f"{vals[n]['value']:>16.6g}" for n in names))
    w = out["workloads"]
    wall = {n: w[n]["end_to_end"]["metrics"]["wall_s"]["value"] for n in w}
    evs = {n: w[n]["end_to_end"]["metrics"]["events_per_sec"]["value"] for n in w}
    print(f"  scale decay   coll-64 / coll-1k events_per_sec = {evs['coll-64'] / evs['coll-1k']:.3f}")
    print(f"  shard speedup coll-1k / shard-1k-w2 wall_s     = {wall['coll-1k'] / wall['shard-1k-w2']:.3f}")
    print(f"  host: {out['host']}   all outputs correct: {ok}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(out, fh, indent=1)
            fh.write("\n")
    return 0 if ok else 1


def write_expected() -> int:
    add_src_to_path()
    from sdrperf import measure, workloads

    expected = {}
    for name in spec.WORKLOADS:
        p = workloads.make(name).warm_up(0)
        if p.failures:
            raise SystemExit(f"{name}: refusing to record a failing pass: {p.failures}")
        expected[name] = p.stats
        print(f"{name}: {p.events} events")
    with open(measure.EXPECTED_PATH, "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def write_benchmark() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as fh:
        json.dump(spec.benchmark_json(), fh, indent=1)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=list(spec.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, help=f"measured time per run (default {spec.RUN_SECONDS})")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, one timed pass")
    ap.add_argument("--out", help="write every number of an all-workloads run to this JSON file")
    ap.add_argument("--write-expected", action="store_true")
    ap.add_argument("--write-benchmark", action="store_true")
    args = ap.parse_args(argv)
    if args.seconds is None:
        args.seconds = 0.0 if args.smoke else float(spec.RUN_SECONDS)
    # any integer is a seed: the sweep store's SQLite column and the sweep's
    # seed axis want 0 <= seed < 2^63, with room for the axis above it
    args.seed %= 2**31
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("perf/run.py: no src/repro beside perf/ — nothing to measure", file=sys.stderr)
        return 2
    if args.write_benchmark:
        return write_benchmark()
    if args.write_expected:
        return write_expected()
    if args.workload:
        return child(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
