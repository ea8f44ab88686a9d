"""Engine performance: events/sec trajectory and run-to-run determinism.

Companion to ``tools/bench.py`` — that script records/gates the committed
perf snapshot (``BENCH_engine.json``); this bench keeps the same workloads
visible in the pytest-benchmark suite and enforces two invariants:

* the engine is *deterministic*: repeated runs dispatch exactly the same
  number of events, frames and virtual time;
* throughput has not collapsed relative to the committed snapshot (a loose
  2x floor — the strict 20% gate lives in ``tools/ci.sh`` so that a noisy
  shared CI host does not flake the whole suite).
"""

import json
import os
import sys

import pytest

from benchmarks.conftest import record, run_once

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tools"))

import bench  # noqa: E402
from bench import BENCH_PATH, _workloads  # noqa: E402


def _committed(mode: str, name: str):
    if not os.path.exists(BENCH_PATH):
        return None
    with open(BENCH_PATH) as fh:
        data = json.load(fh)
    return data.get("current", {}).get("modes", {}).get(mode, {}).get(name)


@pytest.mark.parametrize("name", ["leader-anysource", "sdr-anysource"])
def test_engine_throughput(benchmark, name):
    fn = _workloads("quick")[name]
    res1 = fn()

    res2 = run_once(benchmark, fn)
    assert res2.events == res1.events, "non-deterministic event count"
    assert res2.runtime == res1.runtime, "non-deterministic virtual time"
    assert res2.fabric["frames"] == res1.fabric["frames"]

    host_s = benchmark.stats["mean"]
    ev_per_s = res2.events / host_s
    record(
        benchmark,
        events=res2.events,
        events_per_sec=round(ev_per_s, 1),
        virtual_runtime=res2.runtime,
    )
    committed = _committed("quick", name)
    if committed is not None:
        # Catastrophic-regression floor only (see module docstring).
        floor = 0.5 * committed["events_per_sec"]
        assert ev_per_s > floor, (
            f"{name}: {ev_per_s:,.0f} ev/s is below half the committed "
            f"{committed['events_per_sec']:,.0f} ev/s — engine regression?"
        )


def test_speedup_trajectory_recorded():
    """BENCH_engine.json carries the before/after perf trajectory."""
    with open(BENCH_PATH) as fh:
        data = json.load(fh)
    assert "baseline" in data and "current" in data, "bench snapshots missing"
    speedups = data.get("speedup_vs_baseline", {})
    assert speedups, "run tools/bench.py --update after recording a baseline"
    for mode, per_workload in speedups.items():
        for name, speedup in per_workload.items():
            assert speedup >= 1.5, (
                f"{mode}/{name}: committed speedup {speedup}x vs the seed "
                "engine fell below 1.5x — the fast-path work has regressed"
            )


def test_update_without_workers_keeps_committed_parallel_rows(tmp_path, monkeypatch, capsys):
    """``--update`` without ``--workers`` measures no '@wN' row; it used to
    replace the whole mode and silently delete the committed ones."""
    path = tmp_path / "BENCH_engine.json"
    old = {"sdr-anysource": {"events_per_sec": 1.0}, "sdr-anysource@w4": {"events_per_sec": 2.0}}
    path.write_text(json.dumps({"schema": 1, "current": {"modes": {"quick": old, "full": dict(old)}}}))
    monkeypatch.setattr(bench, "BENCH_PATH", str(path))
    fresh = {"sdr-anysource": {"events_per_sec": 3.0}}
    monkeypatch.setattr(bench, "run_suite", lambda mode, repeats, workers: dict(fresh))

    assert bench.main(["--quick", "--update"]) == 0
    modes = json.loads(path.read_text())["current"]["modes"]
    assert modes["quick"] == {**fresh, "sdr-anysource@w4": old["sdr-anysource@w4"]}
    assert modes["full"] == old  # other modes untouched
    assert "kept committed parallel rows (no --workers): sdr-anysource@w4" in capsys.readouterr().out

    # With --workers the run's own rows are the whole truth.
    both = {**fresh, "sdr-anysource@w2": {"events_per_sec": 4.0}}
    monkeypatch.setattr(bench, "run_suite", lambda mode, repeats, workers: dict(both))
    assert bench.main(["--quick", "--workers", "2", "--update"]) == 0
    assert json.loads(path.read_text())["current"]["modes"]["quick"] == both
