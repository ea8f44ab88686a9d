"""Engine performance: the ``tools/bench.py`` tier table inside the suite.

``tools/bench.py`` records and gates the committed snapshot
(``BENCH_engine.json``); this bench keeps two ``quick`` rows visible in the
pytest-benchmark suite and enforces two invariants:

* the engine is *deterministic*: every timed pass reproduces the warm-up
  pass's events, frames, bytes, virtual time and results (the row raises
  otherwise), and they equal the committed row's;
* throughput has not collapsed relative to the committed snapshot (a loose
  2x floor on the host-corrected median — the strict gate lives in
  ``tools/ci.sh`` so that a noisy shared CI host does not flake the suite).
"""

import json
import os
import sys

import pytest

from benchmarks.conftest import record, run_once

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tools"))

import bench  # noqa: E402
from bench import BENCH_PATH, TIERS  # noqa: E402


def _committed_modes():
    if not os.path.exists(BENCH_PATH):
        return {}
    with open(BENCH_PATH) as fh:
        return json.load(fh).get("current", {}).get("modes", {})


@pytest.mark.parametrize("name", ["leader-anysource", "sdr-anysource"])
def test_engine_throughput(benchmark, name):
    spec = next(s for s in TIERS["quick"].specs if s.label == name)
    row = run_once(benchmark, lambda: bench.measure_row(bench.RowWorkload(spec), repeats=2))
    record(
        benchmark,
        events=row["events"],
        events_per_sec=row["events_per_sec"],
        virtual_runtime=row["virtual_runtime"],
    )
    committed = _committed_modes().get("quick", {}).get(name)
    if committed is not None:
        for key in ("events", "total_frames", "virtual_runtime"):
            assert row[key] == committed[key], f"{name}: {key} moved - re-record with --tier quick --update"
        # Catastrophic-regression floor only (see module docstring).
        floor = 0.5 * committed["events_per_sec"]
        assert row["events_per_sec"] > floor, (
            f"{name}: {row['events_per_sec']:,.0f} ev/s is below half the committed "
            f"{committed['events_per_sec']:,.0f} ev/s — engine regression?"
        )


def test_tier_table_matches_snapshot():
    """Every tier's rows are the committed serial rows, so ``--check`` never
    meets a row it cannot gate; scale64k is built here, never run."""
    modes = _committed_modes()
    for name, workload in TIERS.items():
        serial = sorted(row for row in modes.get(name, {}) if "@w" not in row)
        assert sorted(s.label for s in workload.specs) == serial, name
    (spec,) = TIERS["scale64k"].specs
    assert (spec.label, spec.protocol, spec.n_ranks) == ("sdr-collectives-65536", "sdr", 65536)
    assert spec.kwargs == {"iters": 1, "nbytes": 4096} and not spec.workers


def test_fallback_writes_no_parallel_row(capsys):
    """A sharded run that fell back to serial measures fork + taint + rerun:
    it gets no row, and the reason is printed."""
    spec = bench.JobSpec("tiny-anysource", "sdr", 4, bench.anysource_fanin, {"rounds": 2}, workers=2)
    assert bench.measure_row(bench.RowWorkload(spec), repeats=1) is None
    assert "fell back to serial: drain_race: any-source receive posted" in capsys.readouterr().out


def test_update_without_workers_keeps_committed_parallel_rows(tmp_path, monkeypatch, capsys):
    """``--update`` without ``--workers`` measures no '@wN' row; it used to
    replace the whole tier and silently delete the committed ones."""
    path = tmp_path / "BENCH_engine.json"
    old = {"sdr-anysource": {"events_per_sec": 1.0}, "sdr-anysource@w4": {"events_per_sec": 2.0}}
    path.write_text(json.dumps({"schema": 1, "current": {"modes": {"quick": old, "full": dict(old)}}}))
    monkeypatch.setattr(bench, "BENCH_PATH", str(path))
    fresh = {"sdr-anysource": {"events_per_sec": 3.0, "host_speed": 0.9}}
    monkeypatch.setattr(bench, "measure_tier", lambda name, repeats, workers, layers: dict(fresh))

    assert bench.main(["--tier", "quick", "--update"]) == 0
    snap = json.loads(path.read_text())["current"]
    assert snap["modes"]["quick"] == {**fresh, "sdr-anysource@w4": old["sdr-anysource@w4"]}
    assert snap["modes"]["full"] == old  # other tiers untouched
    assert snap["hosts"]["quick"]["host_speed"] == 0.9
    assert "kept committed parallel rows (no --workers): sdr-anysource@w4" in capsys.readouterr().out

    # With --workers the run's own rows are the whole truth.
    both = {**fresh, "sdr-anysource@w2": {"events_per_sec": 4.0, "host_speed": 0.9}}
    monkeypatch.setattr(bench, "measure_tier", lambda name, repeats, workers, layers: dict(both))
    assert bench.main(["--tier", "quick", "--workers", "2", "--update"]) == 0
    assert json.loads(path.read_text())["current"]["modes"]["quick"] == both


def test_check_gates_serial_rows_only(tmp_path, monkeypatch, capsys):
    path = tmp_path / "BENCH_engine.json"
    committed = {"a": {"events_per_sec": 100.0}, "a@w2": {"events_per_sec": 100.0}}
    path.write_text(json.dumps({"current": {"modes": {"quick": committed}}}))
    monkeypatch.setattr(bench, "BENCH_PATH", str(path))

    def run(rows, tier="quick"):
        monkeypatch.setattr(bench, "measure_tier", lambda name, repeats, workers, layers: rows)
        return bench.main(["--tier", tier, "--check"])

    floor = 100.0 * (1.0 - bench.TOLERANCE)
    assert run({"a": {"events_per_sec": floor + 1}, "a@w2": {"events_per_sec": 10.0}}) == 0
    assert "SLOW (advisory)" in capsys.readouterr().out
    assert run({"a": {"events_per_sec": floor - 1}}) == 1
    assert "REGRESSION" in capsys.readouterr().out
    assert run({"b": {"events_per_sec": 100.0}}) == 2
    assert run({"a": {"events_per_sec": 100.0}}, tier="paper") == 2
