"""Table 2 — HPCCG and CM1: the ANY_SOURCE applications.

Paper (256 procs, r=2): HPCCG 0.002 %, CM1 3.14 %.  The point of the table
(§4.4): SDR-MPI's performance does **not** degrade on anonymous
receptions, unlike rMPI and redMPI, because send-determinism removes the
leader agreement from the critical path.
"""

import pytest

from benchmarks.conftest import record, run_once
from repro.harness.experiments import app_overhead, current_scale
from repro.harness.report import PAPER_TABLE2, overhead_row, render_table

HEADER = ["app", "native s", "repl s", "ovh %", "paper nat", "paper repl", "paper ovh%"]


@pytest.mark.parametrize("app", ["HPCCG", "CM1"])
def test_table2_row(benchmark, app):
    scale = current_scale()
    result = run_once(benchmark, lambda: app_overhead(app, scale))
    row = overhead_row(app, result["native_s"], result["replicated_s"], PAPER_TABLE2[app])
    print()
    print(render_table(
        f"Table 2 row — {app} ({scale.name}, {scale.n_ranks} ranks, r=2)",
        HEADER,
        [row],
    ))
    record(
        benchmark,
        scale=scale.name,
        native_s=result["native_s"],
        replicated_s=result["replicated_s"],
        overhead_pct=result["overhead_pct"],
        paper_overhead_pct=PAPER_TABLE2[app][2],
        unexpected_messages=result["unexpected"],
    )
    # The claim: no degradation from ANY_SOURCE — overhead stays in the
    # same below-5 % band as the deterministic NAS codes, at every scale
    # (HPCCG / CM1: 1.75 / 2.03 default, 3.54 / 4.66 small, 1.74 / 1.87 paper).
    assert 0.0 <= result["overhead_pct"] < 5.0
