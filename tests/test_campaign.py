"""Campaign engine: seeded fault mixes, the degradation taxonomy, and the
machine-audited invariants every run must satisfy.

The hypothesis suite throws random seeds at random protocols and pins the
campaign contract: the arena books balance (``acquired == released +
stranded``), the per-site strand attribution sums back to the scalar
counters (``run_case`` records any discrepancy as ``invariant_error``),
the outcome is exactly one taxonomy bucket, and one integer reproduces
the run byte-identically (fingerprint equality).
"""

import json

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.harness.campaign import (
    OUTCOMES,
    CampaignConfig,
    RunRecord,
    run_campaign,
    run_case,
    sample_faults,
)
from repro.harness.sweep import MIX_PROFILES, SweepSpec
from repro.scenarios import campaign_app, expected_results

import pytest

from repro.harness.runner import Job, cluster_for
from tests.conftest import LEAK_FREE_CELLS


# ----------------------------------------------------------- property suite
def _audited_case(protocol, seed, cfg=None):
    rec = run_case(protocol, seed, cfg)
    # leak balance + per-site sum consistency: run_case records any
    # discrepancy as an invariant error — there must never be one
    assert rec.invariant_error is None
    return rec


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    cell=st.sampled_from(LEAK_FREE_CELLS),
)
def test_every_seeded_run_balances_and_classifies(seed, cell):
    protocol, mix = cell
    rec = _audited_case(protocol, seed, CampaignConfig(**MIX_PROFILES[mix]))
    # outcome taxonomy is exhaustive and exclusive
    assert rec.outcome in OUTCOMES
    # the strand attribution it reports sums back to the metrics
    assert sum(c["frames"] for c in rec.stranded_by_site.values()) == (
        rec.metrics["stranded_frames"]
    )
    assert sum(c["envs"] for c in rec.stranded_by_site.values()) == (
        rec.metrics["stranded_envs"]
    )
    # the fingerprint is parseable and carries the classification
    payload = json.loads(rec.fingerprint)
    assert payload["outcome"] == rec.outcome
    assert payload["seed"] == seed


@pytest.mark.xfail(
    strict=True,
    reason="known defect: replicated protocols leak envelopes under wire-fault "
    "windows (mirror, default mix, ring, seed 44; 45 of 7,500 cases on seeds 0-1,499)",
)
def test_replicated_protocols_leak_envelopes_on_ring():
    """The smallest known reproducer for the leak hunt — no traffic engine
    involved; its sibling is ``test_traffic.py``'s seed 442.  The fix flips
    both to XPASS(strict): delete the markers, widen ``LEAK_FREE_CELLS``."""
    _audited_case("mirror", 44)


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_fault_mix_is_a_pure_function_of_the_seed(seed):
    for protocol in ("native", "sdr"):
        a_sched, a_plan, a_mix = sample_faults(seed, CampaignConfig(), protocol)
        b_sched, b_plan, b_mix = sample_faults(seed, CampaignConfig(), protocol)
        assert a_mix == b_mix
        assert a_sched.crashes == b_sched.crashes
        assert a_sched.respawns == b_sched.respawns
        assert a_sched.suspicions == b_sched.suspicions
        assert a_plan == b_plan


def test_same_seed_reproduces_the_run_byte_identically():
    for protocol, seed in (("sdr", 1), ("native", 0), ("redmpi", 2)):
        first = run_case(protocol, seed)
        again = run_case(protocol, seed)
        assert first.fingerprint == again.fingerprint
        assert first.outcome == again.outcome
        assert first.metrics == again.metrics


# The three cells of perf/'s sweep matrix where a respawned replica is sent
# application frames before RECOVERED re-admits it if SDR's routing default
# is recomputed from liveness at send time (two to four more frames, a
# duplicate or two dropped).  Only perf/expected.json guarded that window
# before; the values are the PR 20 engine's.
@pytest.mark.parametrize(
    "n_ranks,seed,frames,nbytes,events",
    [(4, 2, 161, 3160, 871), (8, 2, 367, 7472, 1973), (8, 3, 373, 7616, 2005)],
)
def test_respawn_window_cells_are_pinned(n_ranks, seed, frames, nbytes, events):
    (point,) = SweepSpec.explicit(
        [{"protocol": "sdr", "n_ranks": n_ranks, "workload": "ring", "mix": "crash", "seed": seed}]
    ).points()
    rec = _audited_case(point.protocol, point.seed, point.campaign_config())
    wire = json.loads(rec.fingerprint)
    assert rec.outcome == "degraded"
    assert (wire["frames"], wire["bytes"], rec.metrics["events"]) == (frames, nbytes, events)
    assert rec.metrics["duplicates_dropped"] == 0


# ------------------------------------------------------------ taxonomy edges
def test_taxonomy_buckets_are_exercised_across_seeds():
    """Over a handful of seeds the campaign must demonstrate its point:
    the native stack fails on fault mixes the replicated protocols absorb."""
    result = run_campaign(protocols=("native", "sdr"), seeds=range(6))
    assert not result.violations
    counts = result.outcome_counts()
    # native has no dedup filter and only one replica per rank: crashes
    # lose ranks, duplicated frames double-deliver
    assert counts["native"]["failed"] >= 1
    # sdr absorbs the same mixes with measurable degradation
    assert counts["sdr"]["degraded"] >= 1
    assert counts["sdr"]["failed"] == 0
    # the imperfect detector leaves a measurable mark on degraded sdr runs
    latencies = [
        r.metrics["detection_latency_max"]
        for r in result.records
        if r.protocol == "sdr" and r.metrics["crashes"]
    ]
    assert latencies and all(lat > 0.0 for lat in latencies)


def test_outcome_counts_cover_every_bucket_and_json_round_trips():
    result = run_campaign(protocols=("sdr",), seeds=range(3))
    counts = result.outcome_counts()
    assert set(counts["sdr"]) == set(OUTCOMES)
    assert sum(counts["sdr"].values()) == 3
    records = json.loads(result.to_json())
    assert len(records) == 3
    assert {r["protocol"] for r in records} == {"sdr"}
    table = result.table("smoke")
    for column in ("protocol", *OUTCOMES, "violations"):
        assert column in table


def test_run_record_rejects_unknown_outcome():
    with pytest.raises(ValueError, match="not in"):
        RunRecord(
            protocol="sdr", seed=0, outcome="exploded", mix={}, metrics={},
            stranded_by_site={},
        )


def test_campaign_app_expected_results_match_clean_run():
    cfg = CampaignConfig()
    job = Job(cfg.n_ranks, cluster=cluster_for(cfg.n_ranks, 1))
    res = job.launch(campaign_app, steps=cfg.steps).run()
    want = expected_results(cfg)
    assert res.app_results == {p: want[job.rmap.rank_of(p)] for p in res.app_results}


def test_clean_seed_completes():
    """A seed whose mix draws no faults must classify as completed."""
    # find one deterministically: the mix dict is empty when nothing drew
    for seed in range(64):
        _sched, plan, mix = sample_faults(seed, CampaignConfig(), "sdr")
        if not mix and plan is None:
            rec = run_case("sdr", seed)
            assert rec.outcome == "completed"
            assert rec.invariant_error is None
            break
    else:  # pragma: no cover - probability ~0 over 64 seeds
        raise AssertionError("no fault-free mix in 64 seeds")
