"""Open-loop traffic engine: determinism, accounting balance, goldens.

Three contracts pinned here:

* **traffic-off compatibility** — the scenario-registry refactor and the
  ``JobResult`` request counters must leave every closed-loop run
  byte-identical: the ``GOLDEN_CLOSED_LOOP`` fingerprints below were
  captured on the pre-refactor tree and must reproduce forever;
* **traffic-on determinism** — arrival plans, admission, and the whole
  run fingerprint are pure functions of the seed, byte-identical between
  serial and pooled sweep execution, under fault mixes included;
* **zero-leak request accounting** — ``offered == admitted + rejected``
  and ``completed + lost == admitted`` on every run, audited exactly like
  the arena balance.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.harness.campaign import CampaignConfig, run_case
from repro.harness.sweep import MIX_PROFILES, SweepSpec, run_sweep
from repro.sim.traffic import (
    ARRIVAL_PROCESSES,
    TrafficBook,
    TrafficConfig,
    TrafficError,
    build_plans,
    expected_traffic_results,
    scaled_config,
)
from tests.conftest import PROTOCOLS

# ------------------------------------------------------- golden traffic-off
#: (protocol, seed, workload, mix) -> run_case fingerprint, captured before
#: the scenario registry and the traffic engine landed.  Byte-identity here
#: is the "traffic defaults off" acceptance criterion.
GOLDEN_CLOSED_LOOP = {
    ("sdr", 1, "ring", "full"): '{"bytes":3184,"frames":164,"metrics":{"crashes":1,"detection_latency_max":5.665582323543048e-05,"duplicates_dropped":5,"events":873,"false_suspicions":1,"fault_delays":0,"fault_drops":0,"fault_dups":4,"lost_ranks":[],"notify_drops":1,"resends":0,"runtime":0.002,"speculative_failovers":7,"stranded_envs":4,"stranded_frames":0,"unfinished":7},"outcome":"deadlocked","protocol":"sdr","seed":1,"sites":{"abandoned_pipeline":{"envs":1,"frames":0},"reorder_reap":{"envs":3,"frames":0}}}',  # noqa: E501
    ("native", 0, "ring", "full"): '{"bytes":392,"frames":49,"metrics":{"crashes":1,"detection_latency_max":5.8570862795929784e-05,"duplicates_dropped":0,"events":264,"false_suspicions":0,"fault_delays":9,"fault_drops":0,"fault_dups":1,"lost_ranks":[0],"notify_drops":0,"resends":0,"runtime":2.7700283702063594e-05,"speculative_failovers":0,"stranded_envs":0,"stranded_frames":0,"unfinished":0},"outcome":"failed","protocol":"native","seed":0,"sites":{}}',  # noqa: E501
    ("mirror", 2, "allreduce", "crash"): '{"bytes":2824,"frames":353,"metrics":{"crashes":1,"detection_latency_max":6.586913933074988e-05,"duplicates_dropped":166,"events":1232,"false_suspicions":0,"fault_delays":0,"fault_drops":0,"fault_dups":0,"lost_ranks":[],"notify_drops":2,"resends":0,"runtime":3.6181199999999965e-05,"speculative_failovers":0,"stranded_envs":2,"stranded_frames":2,"unfinished":0},"outcome":"degraded","protocol":"mirror","seed":2,"sites":{"dead_endpoint":{"envs":1,"frames":1},"inbox_clear":{"envs":1,"frames":1}}}',  # noqa: E501
    ("redmpi", 3, "hpccg", "network"): '{"bytes":16896,"frames":1248,"metrics":{"crashes":0,"detection_latency_max":0.0,"duplicates_dropped":0,"events":3910,"false_suspicions":0,"fault_delays":0,"fault_drops":0,"fault_dups":0,"lost_ranks":[],"notify_drops":0,"resends":0,"runtime":9.307119999999979e-05,"speculative_failovers":0,"stranded_envs":0,"stranded_frames":0,"unfinished":0},"outcome":"completed","protocol":"redmpi","seed":3,"sites":{}}',  # noqa: E501
    ("leader", 4, "allreduce", "clean"): '{"bytes":7680,"frames":384,"metrics":{"crashes":0,"detection_latency_max":0.0,"duplicates_dropped":0,"events":1950,"false_suspicions":0,"fault_delays":0,"fault_drops":0,"fault_dups":0,"lost_ranks":[],"notify_drops":0,"resends":0,"runtime":7.88447999999999e-05,"speculative_failovers":0,"stranded_envs":0,"stranded_frames":0,"unfinished":0},"outcome":"completed","protocol":"leader","seed":4,"sites":{}}',  # noqa: E501
}


@pytest.mark.parametrize("case", sorted(GOLDEN_CLOSED_LOOP))
def test_closed_loop_fingerprints_match_pre_refactor_goldens(case):
    protocol, seed, workload, mix = case
    cfg = CampaignConfig(workload=workload, **MIX_PROFILES[mix])
    rec = run_case(protocol, seed, cfg)
    assert rec.fingerprint == GOLDEN_CLOSED_LOOP[case]
    assert rec.invariant_error is None
    # and the fingerprint never grew request keys while traffic is off
    assert "requests_offered" not in rec.metrics


# ------------------------------------------------------------ plan sampling
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_ranks=st.integers(min_value=1, max_value=8),
    process=st.sampled_from(ARRIVAL_PROCESSES),
    capacity=st.integers(min_value=1, max_value=20),
)
def test_plans_are_seed_deterministic_and_balanced(seed, n_ranks, process, capacity):
    cfg = TrafficConfig(process=process, queue_capacity=capacity, epochs=6)
    a = build_plans(cfg, n_ranks, seed)
    b = build_plans(cfg, n_ranks, seed)
    assert a == b  # pure function of (cfg, n_ranks, seed)
    for plan in a:
        assert len(plan.offered) == cfg.epochs
        for o, adm, rej in zip(plan.offered, plan.admitted, plan.rejected):
            assert adm == min(o, capacity)
            assert o == adm + rej
            assert rej >= 0


def test_build_plans_memo_hands_out_private_lists():
    """The memo keys on the frozen arguments; callers get their own list
    (of shared immutable plans), so none can corrupt another's."""
    cfg = TrafficConfig(epochs=6)
    a = build_plans(cfg, 3, seed=5)
    a.pop()
    b = build_plans(TrafficConfig(epochs=6), 3, seed=5)  # equal key, other object
    assert len(b) == 3 and b[0] is a[0]
    assert build_plans(cfg, 3, seed=6) != b
    with pytest.raises(TrafficError):
        build_plans(cfg, 0, seed=5)
    with pytest.raises(TrafficError):  # an error is not cached as a result
        build_plans(cfg, 0, seed=5)


def test_adding_clients_never_shifts_existing_plans():
    """Per-client RNG streams: rank r's plan is independent of world size."""
    cfg = TrafficConfig(epochs=6)
    small = build_plans(cfg, 2, seed=7)
    large = build_plans(cfg, 6, seed=7)
    assert large[:2] == small


@settings(max_examples=50, deadline=None)
@given(
    process=st.sampled_from(ARRIVAL_PROCESSES),
    t=st.floats(min_value=0.0, max_value=1e-3, allow_nan=False),
)
def test_peak_rate_bounds_instantaneous_rate(process, t):
    cfg = TrafficConfig(process=process)
    assert cfg.rate_at(t) <= cfg.peak_rate() * (1 + 1e-12)
    assert cfg.rate_at(t) >= 0.0


def test_bursty_profile_preserves_mean_rate():
    cfg = TrafficConfig(process="bursty")
    on, off = cfg._burst_rates()
    assert on == pytest.approx(cfg.burst_ratio * off)
    mean = cfg.burst_duty * on + (1.0 - cfg.burst_duty) * off
    assert mean == pytest.approx(cfg.rate)


@pytest.mark.parametrize(
    "bad",
    [
        dict(process="fractal"),
        dict(rate=0.0),
        dict(epoch=-1e-6),
        dict(epochs=0),
        dict(queue_capacity=0),
        dict(skew_sigma=-1.0),
        dict(burst_duty=1.0),
        dict(burst_ratio=0.5),
        dict(diurnal_amplitude=1.0),
    ],
)
def test_invalid_traffic_config_rejected(bad):
    with pytest.raises(TrafficError):
        TrafficConfig(**bad)


def test_scaled_config_fits_campaign_grid():
    base = TrafficConfig()
    cfg = scaled_config(base, steps=10, active=50e-6)
    assert cfg.epochs == 10
    assert cfg.epoch == pytest.approx(5e-6)
    with pytest.raises(TrafficError):
        scaled_config(base, steps=0, active=50e-6)


# ------------------------------------------------------------- request book
def test_book_commit_is_monotone_and_idempotent():
    plans = build_plans(TrafficConfig(epochs=4), 2, seed=0)
    book = TrafficBook(plans)
    book.commit(0, 2)
    book.commit(0, 1)  # a recovery fork replaying an older epoch
    book.commit(0, 2)  # a replica repeating the commit
    assert book.committed_epochs(0) == 2
    t = book.totals()
    assert t["requests_completed"] == sum(plans[0].admitted[:2])
    book.audit()


def test_expected_traffic_results_match_clean_run():
    cfg = CampaignConfig(workload="traffic-poisson", **MIX_PROFILES["clean"])
    for protocol in ("native", "sdr"):
        rec = run_case(protocol, 3, cfg)
        assert rec.outcome == "completed"  # app results matched bound.expected
        assert rec.invariant_error is None
        assert rec.metrics["requests_lost"] == 0
        assert rec.metrics["requests_completed"] == rec.metrics["requests_admitted"]


def _assert_accounting_balances(seed, protocol, mix, workload):
    cfg = CampaignConfig(workload=workload, **MIX_PROFILES[mix])
    rec = run_case(protocol, seed, cfg)
    assert rec.invariant_error is None  # arena + traffic-book audits clean
    m = rec.metrics
    assert m["requests_offered"] == m["requests_admitted"] + m["requests_rejected"]
    assert m["requests_completed"] + m["requests_lost"] == m["requests_admitted"]
    assert m["requests_lost"] >= 0
    # loss needs a cause: a clean mix never loses admitted requests
    if mix == "clean":
        assert m["requests_lost"] == 0


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(min_value=0, max_value=500),
    cell=st.sampled_from([(p, m) for p in PROTOCOLS for m in MIX_PROFILES]),
    workload=st.sampled_from(("traffic-poisson", "traffic-bursty", "traffic-diurnal")),
)
def test_request_accounting_balances_under_fault_mixes(seed, cell, workload):
    _assert_accounting_balances(seed, *cell, workload)


def test_replicated_protocols_balance_under_wire_faults():
    """The traffic-engine reproducer of the parked-duplicate leak
    (mirror/network/traffic-bursty seed 442 left 2 envelopes unaccounted)."""
    _assert_accounting_balances(442, "mirror", "network", "traffic-bursty")


@settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(min_value=0, max_value=200),
    protocol=st.sampled_from(("native", "sdr", "mirror", "leader", "redmpi")),
    mix=st.sampled_from(("clean", "full")),
)
def test_traffic_fingerprint_reproducible_from_seed(seed, protocol, mix):
    cfg = CampaignConfig(workload="traffic-poisson", **MIX_PROFILES[mix])
    assert run_case(protocol, seed, cfg).fingerprint == run_case(protocol, seed, cfg).fingerprint


def test_traffic_sweep_serial_vs_pooled_byte_identical():
    """The sweep determinism contract extends to open-loop runs, fault
    mixes included: every config fingerprint is byte-identical whether the
    matrix ran serially or across a worker pool."""
    spec = SweepSpec(
        protocols=("native", "sdr", "mirror"),
        workloads=("traffic-poisson", "traffic-bursty"),
        mixes=("clean", "full"),
        seeds=(0, 1),
    )
    serial = run_sweep(spec, workers=1)
    pooled = run_sweep(spec, workers=3)
    assert serial.fingerprints == pooled.fingerprints
    assert all(f for f in serial.fingerprints)
    assert not serial.violations and not pooled.violations
    # and the request counters rode into the sweep records
    for rec in serial.records:
        assert "requests_offered" in rec["metrics"]


def test_expected_results_are_global_admitted_totals():
    plans = build_plans(TrafficConfig(epochs=5), 3, seed=11)
    expected = expected_traffic_results(plans)
    want = float(sum(sum(p.admitted) for p in plans))
    assert set(expected) == {0, 1, 2}
    assert all(v == want for v in expected.values())
