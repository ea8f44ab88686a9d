"""Tier-1 smoke of the benchmark: the contract file and one tiny run of everything."""

import json
import os
import re
import subprocess
import sys

import pytest

PERF = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PERF)
sys.path.insert(0, PERF)

from sdrperf import spec  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_benchmark_json_matches_spec_and_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert bench == spec.benchmark_json(), "regenerate with: python3 perf/run.py --write-benchmark"
    assert set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert len(bench["workloads"]) == 6
    assert len(bench["end_to_end"]) <= 16 and len(bench["per_layer"]) <= 128
    assert 1 <= bench["run_seconds"] <= 60
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in bench[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in bench["workloads"])
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert UNIT.fullmatch(m["unit"]) and m["better"] in ("higher", "lower"), m
    assert all(0 <= m["bound"] <= 0.25 for m in bench["end_to_end"])
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


def test_every_layer_metric_moves_something_that_exists():
    for name, _unit, _better, moves in spec.PER_LAYER:
        for metric, workloads in moves:
            assert metric in spec.E2E_UNITS, (name, metric)
            assert workloads and set(workloads) <= set(spec.WORKLOADS), (name, workloads)
    assert spec.EXACT <= set(spec.LAYER_UNITS)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("perf") / "smoke.json"
    proc = subprocess.run(
        [sys.executable, os.path.join(PERF, "run.py"), "--smoke", "--out", str(out)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, timeout=120,
    )  # fmt: skip
    assert proc.returncode == 0, proc.stdout[-4000:]
    with open(out) as fh:
        return json.load(fh), proc.stdout


def test_smoke_prints_every_metric_with_its_unit(smoke):
    results, stdout = smoke
    assert list(results["workloads"]) == list(spec.WORKLOADS)
    for name, res in results["workloads"].items():
        for side, units in (("end_to_end", spec.E2E_UNITS), ("per_layer", spec.LAYER_UNITS)):
            got = res[side]
            assert got["correct"] and got["failed"] == 0 and got["attempted"] >= 1, (name, side, got)
            assert {m: v["unit"] for m, v in got["metrics"].items()} == units, (name, side)
        assert all(v["value"] > 0 for v in res["end_to_end"]["metrics"].values()), name
    for metric, unit in {**spec.E2E_UNITS, **spec.LAYER_UNITS}.items():
        assert re.search(rf"^  {re.escape(metric)} +\S+ {re.escape(unit)}", stdout, re.M), metric


def test_layer_self_times_account_for_the_traced_pass(smoke):
    results, _stdout = smoke
    for name, res in results["workloads"].items():
        layers = res["per_layer"]["metrics"]
        attributed = sum(layers[f"{layer}.self_share"]["value"] for layer in spec.LAYERS)
        assert attributed >= 0.95, (name, attributed)
        assert attributed + layers["trace.unattributed_share"]["value"] == pytest.approx(1.0)
        assert layers["trace.overhead_x"]["value"] > 0, name
    shard = results["workloads"]["shard-1k-w2"]["per_layer"]["metrics"]
    assert shard["sim.shard.windows"]["value"] > 0 and shard["sim.shard.fallbacks"]["value"] == 0
