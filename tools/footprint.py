#!/usr/bin/env python
"""Where a job's memory lives: traced bytes per process, by allocation site.

    python tools/footprint.py                        # sdr r=2, 1024 ranks, top 12 sites
    python tools/footprint.py --ranks 4096 --top 20
    python tools/footprint.py --protocol native

Builds the ``ring_collectives(iters=2, nbytes=4096)`` job of ``coll-1k`` /
``bench.py --tier scale`` under ``tracemalloc`` and prints bytes per physical
process after construction, after ``launch()`` and after ``run()`` — in
total and for the *--top* ``file:line`` sites still holding the most at
the end.  A site whose run column grows with ``--ranks`` is a table that
grows with the peer count (docs/performance.md, "Node-pair pricing").
Tracing slows the run ~4x; the numbers are bytes, not timings.
"""

import argparse
import os
import sys
import tracemalloc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.core.config import ReplicationConfig  # noqa: E402
from repro.harness.runner import Job, cluster_for  # noqa: E402
from repro.scenarios import ring_collectives  # noqa: E402


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--ranks", type=int, default=1024, help="logical ranks (default 1024)")
    ap.add_argument("--protocol", default="sdr", help="replication protocol (default sdr)")
    ap.add_argument("--top", type=int, default=12, help="allocation sites to list (default 12)")
    args = ap.parse_args()
    degree = 1 if args.protocol == "native" else 2
    cfg = ReplicationConfig(degree=degree, protocol=args.protocol)
    tracemalloc.start()
    job = Job(args.ranks, cfg=cfg, cluster=cluster_for(args.ranks, degree))
    phases = [("construct", tracemalloc.take_snapshot())]
    job.launch(ring_collectives, iters=2, nbytes=4096)
    phases.append(("launch", tracemalloc.take_snapshot()))
    res = job.run()
    phases.append(("run", tracemalloc.take_snapshot()))
    tracemalloc.stop()
    n_procs = job.rmap.n_procs
    by_site = [{(s.traceback[0].filename, s.traceback[0].lineno): s.size for s in snap.statistics("lineno")}
               for _, snap in phases]  # fmt: skip
    print(f"{args.protocol} r={degree}, {args.ranks} ranks / {n_procs} procs, {res.events} events: B/proc")
    print(f"{'site':<44}" + "".join(f"{name:>11}" for name, _ in phases))
    print(f"{'TOTAL':<44}" + "".join(f"{sum(sites.values()) / n_procs:>11.0f}" for sites in by_site))
    for site in sorted(by_site[-1], key=by_site[-1].get, reverse=True)[: args.top]:
        label = f"{os.path.relpath(site[0], ROOT) if site[0].startswith(ROOT) else site[0]}:{site[1]}"
        print(f"{label[-43:]:<44}" + "".join(f"{sites.get(site, 0) / n_procs:>11.1f}" for sites in by_site))


if __name__ == "__main__":
    main()
