"""Command-line interface: regenerate any paper artefact from the shell.

Examples::

    sdr-mpi fig7                     # Fig. 7a/7b latency + throughput sweep
    sdr-mpi table1                   # all five NAS rows
    sdr-mpi table1 --app CG          # one row
    sdr-mpi table2                   # HPCCG + CM1
    sdr-mpi determinism --app hpccg  # send-determinism check
    sdr-mpi campaign --seeds 10      # seeded fault campaign: the sweep preset
    REPRO_SCALE=paper sdr-mpi table1 # the paper's exact configuration

(Also runnable as ``python -m repro <command>``.)
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.harness.report import (
    PAPER_FIG7_POINTS,
    PAPER_TABLE1,
    PAPER_TABLE2,
    overhead_row,
    render_series,
    render_table,
)

_OVH_HEADER = ["app", "native s", "repl s", "ovh %", "paper nat", "paper repl", "paper ovh%"]


def _cmd_fig7(args) -> int:
    from repro.apps.netpipe import DEFAULT_SIZES, netpipe_sweep

    sizes = tuple(args.sizes) if args.sizes else DEFAULT_SIZES
    try:
        native = netpipe_sweep("native", sizes=sizes, iters=args.iters)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    sdr = netpipe_sweep(args.protocol, sizes=sizes, iters=args.iters)
    lat_n = {s: native[s]["latency_s"] * 1e6 for s in sizes}
    lat_s = {s: sdr[s]["latency_s"] * 1e6 for s in sizes}
    dec = {s: 100 * (lat_s[s] / lat_n[s] - 1) for s in sizes}
    print(render_series("Fig. 7a — latency (us)", "bytes",
                        {"native": lat_n, args.protocol: lat_s, "decrease%": dec}))
    tp_n = {s: native[s]["throughput_mbps"] for s in sizes}
    tp_s = {s: sdr[s]["throughput_mbps"] for s in sizes}
    print()
    print(render_series("Fig. 7b — throughput (Mbps)", "bytes",
                        {"native": tp_n, args.protocol: tp_s}, fmt="{:.4g}"))
    print(f"\npaper 1-byte anchors: native {PAPER_FIG7_POINTS['native_1B_us']} us, "
          f"SDR-MPI {PAPER_FIG7_POINTS['sdr_1B_us']} us")
    return 0


def _cmd_table1(args) -> int:
    from repro.harness.experiments import current_scale, nas_overhead

    try:
        scale = current_scale()
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    apps = [args.app] if args.app else ["BT", "CG", "FT", "MG", "SP"]
    rows = []
    for app in apps:
        r = nas_overhead(app, scale, protocol=args.protocol)
        rows.append(overhead_row(app, r["native_s"], r["replicated_s"], PAPER_TABLE1[app]))
        print(f"  ... {app} done", file=sys.stderr)
    print(render_table(
        f"Table 1 — NAS benchmarks ({scale.name}: class {scale.nas_class}, "
        f"{scale.n_ranks} ranks, protocol={args.protocol}, r=2)",
        _OVH_HEADER, rows))
    return 0


def _cmd_table2(args) -> int:
    from repro.harness.experiments import app_overhead, current_scale

    try:
        scale = current_scale()
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    apps = [args.app] if args.app else ["HPCCG", "CM1"]
    rows = []
    for app in apps:
        r = app_overhead(app, scale, protocol=args.protocol)
        rows.append(overhead_row(app, r["native_s"], r["replicated_s"], PAPER_TABLE2[app]))
        print(f"  ... {app} done", file=sys.stderr)
    print(render_table(
        f"Table 2 — ANY_SOURCE applications ({scale.name}, {scale.n_ranks} ranks, "
        f"protocol={args.protocol}, r=2)",
        _OVH_HEADER, rows))
    return 0


def _cmd_determinism(args) -> int:
    from repro.apps.cm1 import cm1_rank
    from repro.apps.hpccg import hpccg_rank
    from repro.apps.nas import NAS_APPS
    from repro.apps.patterns import master_worker
    from repro.trace.determinism import check_send_determinism

    registry = {
        "hpccg": (hpccg_rank, dict(nx=8, ny=8, nz=8, iters=3)),
        "cm1": (cm1_rank, dict(n=16, steps=2)),
        "master_worker": (master_worker, dict(tasks=9)),
        **{name.lower(): (fn, dict(klass="S", iters=2)) for name, fn in NAS_APPS.items()},
    }
    if args.app not in registry:
        print(f"unknown app {args.app!r}; have {sorted(registry)}", file=sys.stderr)
        return 2
    fn, kwargs = registry[args.app]
    try:
        report = check_send_determinism(fn, args.ranks, replays=args.replays, **kwargs)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    verdict = "send-deterministic" if report else "NOT send-deterministic"
    # replay 0 is the unjittered reference, not a perturbed replay
    print(f"{args.app}: {verdict} over {report.replays - 1} perturbed replays")
    for proc, idx, base, other in report.divergences[:5]:
        print(f"  divergence at proc {proc}, send #{idx}: {base} vs {other}")
    # master_worker is the negative control: it passes only when flagged
    return 0 if bool(report) != (args.app == "master_worker") else 1


def _cmd_campaign(args) -> int:
    from repro.core.config import PROTOCOLS

    protocols = tuple(args.protocols) if args.protocols else PROTOCOLS
    return _run_matrix(
        args, {"protocols": protocols},
        f"Fault campaign — {args.seeds} seeded mixes x {len(protocols)} protocols "
        f"(seeds {args.seed_base}..{args.seed_base + args.seeds - 1})",
    )


def _cmd_sweep(args) -> int:
    if args.report:
        from repro.harness.store import StoreError, SweepStore
        from repro.harness.sweep import render_sweep_report

        if not args.store:
            print("--report requires --store BASE", file=sys.stderr)
            return 2
        try:
            with SweepStore.open(args.store) as store:
                print(render_sweep_report(store.records(), store.summary,
                                          title="Sweep (from store)"))
        except StoreError as exc:
            print(f"store error: {exc}", file=sys.stderr)
            return 2
        return 0

    axes = {"steps": args.steps}
    for axis in ("protocols", "degrees", "ranks", "workloads", "mixes",
                 "detectors", "intensities"):
        values = getattr(args, axis)
        if values:
            axes[axis] = tuple(values)
    return _run_matrix(args, axes, "Sweep")


def _run_matrix(args, axes, title: str) -> int:
    """Run the sweep matrix *axes* x the ``--seeds`` range and report it
    under *title*: 2 on a bad matrix or store, 1 on an invariant violation,
    a lost worker or a verify mismatch, else 0."""
    from repro.harness.store import StoreError, atomic_write_text
    from repro.harness.sweep import (
        SweepError,
        SweepSpec,
        render_sweep_report,
        run_sweep,
        verify_sample,
    )

    if args.seeds < 1:
        print(f"--seeds must be >= 1, got {args.seeds}", file=sys.stderr)
        return 2
    if args.verify < 0:
        print(f"--verify must be >= 0, got {args.verify}", file=sys.stderr)
        return 2
    try:
        spec = SweepSpec(seeds=range(args.seed_base, args.seed_base + args.seeds), **axes)
    except SweepError as exc:
        print(f"invalid sweep matrix: {exc}", file=sys.stderr)
        return 2

    workers = max(1, args.workers)
    print(f"sweep: {spec.n_configs} configs on {workers} worker(s)", file=sys.stderr)
    try:
        result = run_sweep(spec, workers=workers, store_base=args.store,
                           overwrite=args.overwrite)
    except (SweepError, StoreError) as exc:
        print(f"sweep failed: {exc}", file=sys.stderr)
        return 2

    print(render_sweep_report(result.records, result.summary(), title=title))
    if args.json:
        atomic_write_text(
            args.json, json.dumps(result.records, sort_keys=True, indent=2, default=str)
        )
        print(f"\nwrote {len(result.records)} run records to {args.json}", file=sys.stderr)
    rc = 0
    for rec in result.violations:
        print(
            f"INVARIANT VIOLATION: config #{rec['index']} "
            f"{rec['protocol']}/r{rec['degree']}/n{rec['n_ranks']}"
            f"/{rec['workload']}/{rec['mix']}/s{rec['seed']}: "
            f"{rec['invariant_error']}",
            file=sys.stderr,
        )
        rc = 1
    if result.worker_crashes:
        print(f"{result.worker_crashes} config(s) lost to worker crashes", file=sys.stderr)
        rc = 1
    if args.verify:
        mismatches = verify_sample(spec, result.records, args.verify, result.served)
        if mismatches:
            for m in mismatches:
                print(f"VERIFY MISMATCH: {m}", file=sys.stderr)
            rc = 1
        else:
            print(
                f"verified {min(args.verify, spec.n_configs)} sampled config(s) "
                f"against memo-less serial re-execution"
                + (", a memo-served one among them" if result.served else ""),
                file=sys.stderr,
            )
    if args.store:
        print(f"store: {args.store}.jsonl / {args.store}.sqlite", file=sys.stderr)
    return rc


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="sdr-mpi", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fig7", help="NetPipe latency/throughput sweep (Fig. 7)")
    p.add_argument("--protocol", default="sdr", choices=["sdr", "mirror", "leader", "redmpi"])
    p.add_argument("--iters", type=int, default=10)
    p.add_argument("--sizes", type=int, nargs="*")
    p.set_defaults(fn=_cmd_fig7)

    p = sub.add_parser("table1", help="NAS benchmark overheads (Table 1)")
    p.add_argument("--app", choices=["BT", "CG", "FT", "MG", "SP"])
    p.add_argument("--protocol", default="sdr", choices=["sdr", "mirror", "leader", "redmpi"])
    p.set_defaults(fn=_cmd_table1)

    p = sub.add_parser("table2", help="HPCCG + CM1 overheads (Table 2)")
    p.add_argument("--app", choices=["HPCCG", "CM1"])
    p.add_argument("--protocol", default="sdr", choices=["sdr", "mirror", "leader", "redmpi"])
    p.set_defaults(fn=_cmd_table2)

    p = sub.add_parser(
        "campaign", help="seeded fault campaign with audited degradation taxonomy"
    )
    p.add_argument(
        "--protocols", nargs="*",
        choices=["native", "sdr", "mirror", "leader", "redmpi"],
        help="protocols to campaign (default: all five)",
    )
    p.add_argument("--seeds", type=int, default=5, help="number of seeded fault mixes")
    p.add_argument("--seed-base", type=int, default=0, help="first campaign seed")
    p.add_argument("--json", metavar="PATH", help="write the sweep records as JSON")
    # the sweep at its default axes: serial, no store, no verify sample
    p.set_defaults(fn=_cmd_campaign, workers=1, store=None, overwrite=False, verify=0)

    p = sub.add_parser(
        "sweep", help="config-matrix sweep across a multiprocessing worker pool"
    )
    p.add_argument(
        "--protocols", nargs="*",
        choices=["native", "sdr", "mirror", "leader", "redmpi"],
        help="protocol axis (default: all five)",
    )
    from repro.harness.sweep import DETECTOR_PROFILES
    from repro.scenarios import scenario_names

    p.add_argument("--degrees", type=int, nargs="*", help="replication-degree axis")
    p.add_argument("--ranks", type=int, nargs="*", help="world-size axis")
    p.add_argument(
        "--workloads", nargs="*",
        help=f"workload axis ({', '.join(scenario_names())})",
    )
    p.add_argument(
        "--mixes", nargs="*", help="fault-mix axis (clean, crash, network, full)"
    )
    p.add_argument(
        "--detectors", nargs="*",
        help=f"failure-detector axis ({', '.join(sorted(DETECTOR_PROFILES))})",
    )
    p.add_argument(
        "--intensities", type=float, nargs="*",
        help="adversary-intensity axis: scales network fault-window odds (1.0 = as named)",
    )
    p.add_argument("--seeds", type=int, default=3, help="seeds per config group")
    p.add_argument("--seed-base", type=int, default=0, help="first campaign seed")
    p.add_argument("--steps", type=int, default=12, help="application steps per run")
    p.add_argument("--workers", type=int, default=1, help="worker processes")
    p.add_argument("--store", metavar="BASE", help="stream results to BASE.jsonl + BASE.sqlite")
    p.add_argument("--overwrite", action="store_true", help="replace an existing store")
    p.add_argument(
        "--verify", type=int, default=0, metavar="K",
        help="re-run K sampled configs serially and compare fingerprints",
    )
    p.add_argument(
        "--report", action="store_true",
        help="render tables from an existing --store instead of running",
    )
    p.set_defaults(fn=_cmd_sweep, json=None)

    p = sub.add_parser("determinism", help="send-determinism check (Definition 1)")
    p.add_argument("--app", default="hpccg")
    p.add_argument("--ranks", type=int, default=4)
    p.add_argument("--replays", type=int, default=4)
    p.set_defaults(fn=_cmd_determinism)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
