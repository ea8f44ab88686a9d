"""Untraced measurement: the end-to-end metrics of one workload.

Closed loop, one generator process: one untimed warm-up pass (lazy
one-off costs, and the reference every timed pass's simulated statistics
must reproduce), then timed passes — ``gc.collect()`` before each — until
``seconds`` of measured time have accumulated; a batch of timed set-ups
runs before every pass.  Every metric is the median over the timed passes
(``setup_s``: over all set-ups); the samples travel with it.  Timings are
reported at the reference host speed (``hostspeed``), the raw seconds
beside them.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import sys
import time
from typing import Any, Dict, List, Optional

from sdrperf import PERF_DIR
from sdrperf.hostspeed import REFERENCE_S, Sampler, probe
from sdrperf.workloads import Pass

EXPECTED_PATH = os.path.join(PERF_DIR, "expected.json")
MIN_PASSES = 3
#: set-up is repeated in batches, one before every pass, so that its median
#: samples the whole run and not the host's mood in the first half second;
#: a batch lasts about this long and holds this many repeats
SETUP_BATCH_SECONDS = 0.3
SETUP_BATCH_MIN, SETUP_BATCH_MAX = 2, 10


def peak_rss_mb() -> float:
    # ru_maxrss is KB on Linux, bytes on macOS
    scale = 1.0 if sys.platform == "darwin" else 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * scale / 1e6


def time_setup(workload, seed: int, samples: List[float], raw: List[float]) -> None:
    """Append one batch of timed set-ups to *samples* (at reference host
    speed: a probe before and after each one) and *raw* (as measured)."""
    spent, done = 0.0, 0
    while done < SETUP_BATCH_MIN or (spent < SETUP_BATCH_SECONDS and done < SETUP_BATCH_MAX):
        gc.collect()
        before = probe()
        t0 = time.perf_counter()
        workload.setup(seed)
        raw.append(time.perf_counter() - t0)
        samples.append(raw[-1] * REFERENCE_S * 2.0 / (before + probe()))
        spent += raw[-1]
        done += 1


def load_expected() -> Dict[str, Any]:
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


def check_pass(p: Pass, reference: Optional[Pass], expected: Optional[Dict[str, Any]]) -> List[str]:
    """Failed operations of one pass: its own, plus its simulated statistics
    differing from the warm-up's or (seed 0, full size) from expected.json."""
    failures = list(p.failures)
    if reference is not None and p.stats != reference.stats:
        failures.append("simulated statistics differ from the warm-up pass")
    # through JSON first: tuples become lists, as stored
    if expected is not None and json.loads(json.dumps(p.stats)) != expected:
        failures.append("simulated statistics differ from perf/expected.json")
    return failures


def measure(workload, seed: int, seconds: float, expected: Optional[Dict[str, Any]], min_passes: int):
    """Returns (samples per end-to-end metric, the same as measured before
    the host-speed correction, attempted, failures)."""
    setup: List[float] = []
    raw: Dict[str, List[float]] = {"wall_s": [], "cpu_s": [], "setup_s": [], "host_speed": []}
    time_setup(workload, seed, setup, raw["setup_s"])
    warm = workload.warm_up(seed)
    failures = [f"warm-up: {f}" for f in check_pass(warm, None, expected)]
    passes: List[Pass] = []
    wall: List[float] = []
    cpu: List[float] = []
    while len(passes) < min_passes or sum(raw["wall_s"]) < seconds:
        time_setup(workload, seed, setup, raw["setup_s"])
        host = Sampler(during=not workload.forks)
        p = workload.run_pass(seed, tracer=host)
        passes.append(p)
        failures += check_pass(p, warm, None)
        raw["wall_s"].append(p.wall_s)
        raw["cpu_s"].append(p.cpu_s)
        raw["host_speed"].append(host.speed)
        wall.append((p.wall_s - host.spent_s) * host.speed)
        cpu.append((p.cpu_s - host.spent_s) * host.speed)
    attempted = sum(p.ops for p in passes)
    failed = min(len(failures), attempted)
    samples = {
        "wall_s": wall,
        "events_per_sec": [p.events / w for p, w in zip(passes, wall)],
        "cpu_s": cpu,
        "setup_s": setup,
        "peak_rss_mb": [peak_rss_mb()],
        "configs_per_sec": [p.ops / w for p, w in zip(passes, wall)],
        "ok_share": [1.0 - failed / attempted],
    }
    return samples, raw, attempted, failures


def medians(samples: Dict[str, List[float]], units: Dict[str, str]) -> Dict[str, Dict[str, Any]]:
    return {name: {"value": statistics.median(vals), "unit": units[name]} for name, vals in samples.items()}
