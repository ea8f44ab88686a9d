"""Paper-style rendering of experiment outputs.

Every benchmark prints the same rows/series the paper reports, side by
side with the paper's numbers, so a bench log double-checks the shape
claims at a glance.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.harness.metrics import overhead_pct

__all__ = [
    "render_table",
    "render_series",
    "overhead_row",
    "strand_site_rows",
    "sweep_group_label",
    "sweep_outcome_rows",
    "parallel_rows",
    "traffic_rows",
    "PAPER_TABLE1",
    "PAPER_TABLE2",
    "PAPER_FIG7_POINTS",
]

#: Table 1 of the paper (class D, 256 procs, r=2)
PAPER_TABLE1: Dict[str, Tuple[float, float, float]] = {
    # app: (native s, replicated s, overhead %)
    "BT": (267.24, 271.21, 1.49),
    "CG": (210.37, 220.71, 4.92),
    "FT": (130.61, 134.58, 3.04),
    "MG": (35.14, 36.04, 2.56),
    "SP": (418.62, 428.70, 2.41),
}

#: Table 2 of the paper (256 procs, r=2)
PAPER_TABLE2: Dict[str, Tuple[float, float, float]] = {
    "HPCCG": (91.13, 91.29, 0.002),
    "CM1": (210.21, 216.80, 3.14),
}

#: Fig. 7 anchor points quoted in the text (1-byte latency, µs)
PAPER_FIG7_POINTS = {"native_1B_us": 1.67, "sdr_1B_us": 2.37}


def render_table(
    title: str,
    header: Sequence[str],
    rows: Sequence[Sequence[object]],
) -> str:
    """Monospace table with right-aligned numeric columns."""
    cells = [[str(c) for c in row] for row in rows]
    widths = [
        max(len(header[i]), *(len(r[i]) for r in cells)) if cells else len(header[i])
        for i in range(len(header))
    ]
    lines = [title]
    lines.append("  ".join(h.rjust(w) for h, w in zip(header, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def overhead_row(
    name: str,
    native_s: float,
    replicated_s: float,
    paper: Optional[Tuple[float, float, float]] = None,
) -> List[object]:
    """One Table 1/2-shaped row: measured plus the paper's reference."""
    ovh = overhead_pct(native_s, replicated_s)
    row: List[object] = [name, f"{native_s:.2f}", f"{replicated_s:.2f}", f"{ovh:.2f}"]
    if paper is not None:
        row += [f"{paper[0]:.2f}", f"{paper[1]:.2f}", f"{paper[2]:.2f}"]
    return row


def strand_site_rows(
    labelled: Sequence[Tuple[str, Mapping[str, Mapping[str, int]]]],
) -> Tuple[List[str], List[List[object]]]:
    """Header + rows for per-mechanism strand attribution columns.

    Takes ``(run label, JobResult.stranded_by_site)`` pairs and builds one
    row per run with a ``frames/envs`` cell per strand site observed
    anywhere in the set, so fault experiments report *which* fail-stop
    mechanism stranded what (``dead_endpoint``, ``inbox_clear``,
    ``link_drop``, ...) instead of one opaque total.  Feed the result to
    :func:`render_table`.
    """
    sites = sorted(
        {
            site
            for _label, by_site in labelled
            for site, cell in by_site.items()
            if cell.get("frames", 0) or cell.get("envs", 0)
        }
    )
    header = ["run", *sites, "total f/e"]
    rows: List[List[object]] = []
    for label, by_site in labelled:
        cells: List[object] = []
        total_f = total_e = 0
        for site in sites:
            cell = by_site.get(site, {})
            f, e = cell.get("frames", 0), cell.get("envs", 0)
            total_f += f
            total_e += e
            cells.append(f"{f}/{e}" if (f or e) else "-")
        rows.append([label, *cells, f"{total_f}/{total_e}"])
    return header, rows


def parallel_rows(
    labelled: Sequence[Tuple[str, object]],
) -> Tuple[List[str], List[List[object]]]:
    """Header + rows for the sharded-execution columns.

    Takes ``(run label, JobResult-or-record)`` pairs (duck-typed: objects
    expose a ``parallel`` attribute, mappings a ``"parallel"`` key) and
    reports, per run that carries parallel metadata: the requested worker
    count, the shard count actually used, the number of conservative sync
    windows, and — when the pair's label matches a serial run in the same
    set whose label is the parallel label minus an ``@w<N>`` suffix and
    both carry a wall-time (``wall_s``, or bench-row ``host_seconds``) —
    the speedup versus that serial run.  Runs that fell back to serial execution show
    the first fallback reason instead of a window count.  Returns an empty
    row list when no run carries parallel metadata, so callers can omit
    the table entirely for purely serial reports (the default Job path
    stays column-free).  Feed to :func:`render_table`.
    """

    def _get(obj: object, key: str) -> object:
        if isinstance(obj, Mapping):
            return obj.get(key)
        return getattr(obj, key, None)

    walls: Dict[str, float] = {}
    for label, res in labelled:
        wall = _get(res, "wall_s")
        if wall is None:
            wall = _get(res, "host_seconds")
        if isinstance(wall, (int, float)):
            walls[label] = float(wall)
    header = ["run", "workers", "shards", "windows", "speedup"]
    rows: List[List[object]] = []
    for label, res in labelled:
        par = _get(res, "parallel")
        if not isinstance(par, Mapping):
            continue
        fallback = par.get("fallback") or []
        windows: object = str(fallback[0]) if fallback else par.get("windows", 0)
        speedup: object = "-"
        base, sep, _tail = label.rpartition("@w")
        if sep and base in walls and label in walls and walls[label] > 0.0:
            speedup = f"{walls[base] / walls[label]:.2f}x"
        rows.append(
            [label, par.get("workers", "-"), par.get("shards", "-"), windows, speedup]
        )
    return header, rows


def sweep_group_label(rec: Mapping[str, object]) -> str:
    """One sweep record's config-group label: every axis except the seed.

    The detector and intensity segments appear only when the record is off
    their defaults, so labels from sweeps that never touched those axes
    (including every stored pre-axis record) render unchanged.
    """
    label = (
        f"{rec['protocol']}/r{rec['degree']}/n{rec['n_ranks']}"
        f"/{rec['workload']}/{rec['mix']}"
    )
    detector = rec.get("detector", "default")
    if detector != "default":
        label += f"/{detector}"
    intensity = rec.get("intensity", 1.0)
    if intensity != 1.0:
        label += f"/x{intensity:g}"
    return label


def sweep_outcome_rows(
    records: Sequence[Mapping[str, object]],
    outcomes: Sequence[str],
) -> Tuple[List[str], List[List[object]]]:
    """Header + rows of the sweep outcome matrix.

    Groups sweep run records by config group (every axis except the seed)
    and counts each outcome of *outcomes* per group, plus a survival rate
    (completed + degraded, the paper's "application finishes" criterion)
    and the mean simulated runtime over the group's seeds.  The outcome
    vocabulary is passed in rather than imported so this module stays
    import-free of the campaign layer.  Feed to :func:`render_table`.
    """
    groups: Dict[str, Dict[str, object]] = {}
    for rec in records:
        label = sweep_group_label(rec)
        g = groups.setdefault(
            label, {"counts": {o: 0 for o in outcomes}, "runtimes": []}
        )
        counts: Dict[str, int] = g["counts"]  # type: ignore[assignment]
        outcome = str(rec.get("outcome", ""))
        counts[outcome] = counts.get(outcome, 0) + 1
        metrics = rec.get("metrics") or {}
        if isinstance(metrics, Mapping) and "runtime" in metrics:
            g["runtimes"].append(float(metrics["runtime"]))  # type: ignore[union-attr]
    header = ["config", "runs", *outcomes, "survive%", "mean runtime"]
    rows: List[List[object]] = []
    for label in sorted(groups):
        counts = groups[label]["counts"]  # type: ignore[assignment]
        runtimes: List[float] = groups[label]["runtimes"]  # type: ignore[assignment]
        n = sum(counts.values())
        survived = counts.get("completed", 0) + counts.get("degraded", 0)
        mean_rt = sum(runtimes) / len(runtimes) if runtimes else float("nan")
        rows.append(
            [
                label,
                n,
                *(counts.get(o, 0) for o in outcomes),
                f"{100.0 * survived / n:.0f}" if n else "-",
                f"{mean_rt:.3g}",
            ]
        )
    return header, rows


def traffic_rows(
    records: Sequence[Mapping[str, object]],
) -> Tuple[List[str], List[List[object]]]:
    """Header + rows of the open-loop traffic ledger, per config group.

    Only records whose metrics carry request accounting (open-loop
    scenarios) contribute; sums the offered/admitted/rejected/completed/
    lost request counters over the group's seeds and derives the rejection
    and loss rates the capacity-planning tables compare.  Returns an empty
    row list when no record carries traffic — callers can skip the table.
    Feed to :func:`render_table`.
    """
    keys = (
        "requests_offered", "requests_admitted", "requests_rejected",
        "requests_completed", "requests_lost",
    )
    groups: Dict[str, Dict[str, int]] = {}
    for rec in records:
        metrics = rec.get("metrics") or {}
        if not isinstance(metrics, Mapping) or "requests_offered" not in metrics:
            continue
        g = groups.setdefault(sweep_group_label(rec), {k: 0 for k in keys})
        for k in keys:
            g[k] += int(metrics.get(k, 0))
    header = [
        "config", "offered", "admitted", "rejected", "completed", "lost",
        "reject%", "loss%",
    ]
    rows: List[List[object]] = []
    for label in sorted(groups):
        g = groups[label]
        offered, admitted = g["requests_offered"], g["requests_admitted"]
        rows.append(
            [
                label,
                offered,
                admitted,
                g["requests_rejected"],
                g["requests_completed"],
                g["requests_lost"],
                f"{100.0 * g['requests_rejected'] / offered:.1f}" if offered else "-",
                f"{100.0 * g['requests_lost'] / admitted:.1f}" if admitted else "-",
            ]
        )
    return header, rows


def render_series(
    title: str,
    xlabel: str,
    series: Mapping[str, Mapping[int, float]],
    fmt: str = "{:.3g}",
) -> str:
    """Column-per-series rendering of Fig.-7-like sweeps."""
    xs = sorted({x for s in series.values() for x in s})
    header = [xlabel] + list(series)
    rows = []
    for x in xs:
        rows.append([x] + [fmt.format(series[name].get(x, float("nan"))) for name in series])
    return render_table(title, header, rows)
