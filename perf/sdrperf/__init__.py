"""The repo's benchmark: workloads, untraced measurement, traced layer table.

Everything here drives the simulator through its public functions only
(``Job``, ``JobShape``, ``cluster_for``, ``ParallelConfig``, ``run_sweep``,
``SweepSpec``, ``SweepStore``, ``NAS_APPS``, ``repro.scenarios``,
``repro.sim.shard.fingerprint``).  See ``perf/README.md``.
"""

import os
import sys

PERF_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(PERF_DIR)
#: scratch space for sweep stores; inside the checkout, listed in .gitignore
WORK_DIR = os.path.join(PERF_DIR, ".work")


def add_src_to_path() -> None:
    """Make ``import repro`` resolve to this checkout's ``src/``."""
    src = os.path.join(ROOT, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
