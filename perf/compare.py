#!/usr/bin/env python3
"""perf/compare.py A.json B.json — compare two ``perf/run.py --out`` files.

A is the base (the parent commit, or the first of two repeat sets), B the
change.  Per workload and end-to-end metric: both medians, the ratio B/A,
how much worse B reads (as a share of A, in the metric's own direction),
the bound, and a verdict:

``ok``          B is no worse than A by more than the bound
``worse``       it is, and A's own passes agree with each other within the bound
``unresolved``  it is, but the spread between A's own passes exceeds the bound,
                so the two files cannot tell a regression from noise

Every per-layer metric that must repeat exactly (work counts, calls per
event) is compared for equality; a difference is reported as ``differs``.
Exit code 1 on any ``worse`` or ``differs``, or more failed operations in B.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import Any, Dict, List, Tuple

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from sdrperf import spec  # noqa: E402


def worse_by(a: float, b: float, better: str) -> float:
    """How much worse *b* reads than *a*, as a share of *a* (negative: better)."""
    return (a - b) / a if better == "higher" else (b - a) / a


def spread(samples: List[float]) -> float:
    """Distance between the extremes of a run's own samples over their median."""
    if len(samples) < 2:
        return 0.0
    return (max(samples) - min(samples)) / statistics.median(samples)


def compare(a: Dict[str, Any], b: Dict[str, Any]) -> Tuple[List[str], bool]:
    lines = [
        f"{'workload':<14}{'metric':<18}{'A':>13}{'B':>13}{'B/A':>8}{'worse by':>10}{'bound':>7}  verdict"
    ]
    bad = False
    for name in spec.WORKLOADS:
        wa, wb = a["workloads"][name], b["workloads"][name]
        ea, eb = wa["end_to_end"], wb["end_to_end"]
        for metric, _unit, better, bound in spec.END_TO_END:
            va, vb = ea["metrics"][metric]["value"], eb["metrics"][metric]["value"]
            worse = worse_by(va, vb, better)
            verdict = "ok"
            if worse > bound:
                noisy = spread(ea["detail"]["samples"][metric]) > bound
                verdict = "unresolved" if noisy else "worse"
                bad = bad or verdict == "worse"
            row = f"{name:<14}{metric:<18}{va:>13.6g}{vb:>13.6g}{vb / va:>8.3f}{worse:>+10.3f}{bound:>7.3f}"
            lines.append(f"{row}  {verdict}")
        for side in ("end_to_end", "per_layer"):
            fa = wa[side]["failed"] / wa[side]["attempted"]
            fb = wb[side]["failed"] / wb[side]["attempted"]
            if fb > fa:
                lines.append(f"{name:<14}{side} fail share rose from {fa:.4f} to {fb:.4f}  worse")
                bad = True
        la, lb = wa["per_layer"]["metrics"], wb["per_layer"]["metrics"]
        differing = [m for m in sorted(spec.EXACT) if la[m]["value"] != lb[m]["value"]]
        for m in differing:
            lines.append(f"{name:<14}{m}: {la[m]['value']!r} != {lb[m]['value']!r}  differs")
        bad = bad or bool(differing)
        same = len(spec.EXACT) - len(differing)
        lines.append(f"{name:<14}{same} of {len(spec.EXACT)} exact per-layer metrics identical")
    return lines, bad


def main(path_a: str, path_b: str) -> int:
    with open(path_a) as fa, open(path_b) as fb:
        lines, bad = compare(json.load(fa), json.load(fb))
    print("\n".join(lines))
    print("RESULT: " + ("worse" if bad else "no regression beyond the bounds"))
    return 1 if bad else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
