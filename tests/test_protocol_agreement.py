"""Differential suite: five protocols, one application answer.

Replication is transparent to the application (§3): whatever protocol
carries the messages — none, SDR-MPI, or the mirror / leader / redMPI
baselines — every replica of a logical rank must return what the native
run's rank returns.  Checked on every crash-free configuration of the
recorded corpus matrix (``tests/data/spec_fingerprints.jsonl``: p2p with
and without wildcards, rendezvous, collectives, mixed traffic), all five
protocols run live per configuration.

The wildcard programs accumulate ANY_SOURCE payloads in arrival order,
which differs between protocols; their payloads are small integers, whose
float sums are exact in any order, so the results still compare exactly.
"""

from __future__ import annotations

import json

from tests.conftest import CORPUS_RUNS, PROTOCOLS, load_corpus, make_job

#: the distinct crash-free (kind, n, params) points, whatever protocols the
#: corpus happened to draw for each
POINTS = {
    (c["kind"], c["n"], json.dumps(c["params"], sort_keys=True)): c["params"]
    for c in load_corpus("spec_fingerprints.jsonl")
    if c["params"].get("crash_at") is None
}


def _results_by_rank(protocol, kind, n, params):
    """{logical rank: [result of each of its replicas]}"""
    job = make_job(protocol, n)
    results = CORPUS_RUNS[kind](job, **params)["results"]
    by_rank = {}
    for proc, value in results.items():
        by_rank.setdefault(job.rmap.rank_of(proc), []).append(value)
    return by_rank


def test_all_protocols_agree_on_app_results():
    assert len(POINTS) >= 80
    for (kind, n, _key), params in sorted(POINTS.items()):
        native = _results_by_rank("native", kind, n, params)
        assert sorted(native) == list(range(n))
        for protocol in PROTOCOLS[1:]:
            replicated = _results_by_rank(protocol, kind, n, params)
            for rank, (answer,) in native.items():
                assert replicated[rank] == [answer, answer], (
                    f"{protocol} disagrees with native on rank {rank} ({kind}, n={n}, {params})"
                )
