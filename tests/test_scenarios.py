"""Scenario registry: envelopes, binding, and the NAS campaign wiring.

The registry is the single workload abstraction — the campaign runner,
the sweep orchestrator, ``tools/bench.py`` and the ablation drivers all
resolve names through :func:`get_scenario`.  These tests pin the
registry contract (lookup, loud collisions, build-time envelope checks)
and prove the NAS closed-form expecteds against actual clean runs.
"""

from __future__ import annotations

import pytest

from repro.harness.campaign import CampaignConfig, run_case, sample_faults
from repro.harness.sweep import MIX_PROFILES
from repro.scenarios import (
    ClosedLoopScenario,
    Scenario,
    ScenarioError,
    expected_results,
    get_scenario,
    register,
    scenario_names,
    scenarios,
)
from repro.scenarios.nas import CAMPAIGN_FLOPS_PER_CORE
from repro.trace.determinism import check_send_determinism


# ----------------------------------------------------------------- registry
def test_registry_holds_every_migrated_workload():
    names = scenario_names()
    # the three ex-WORKLOADS entries, the bench/ablation kernels, the NAS
    # family, and the open-loop traffic family all resolve here
    for name in (
        "ring", "allreduce", "hpccg",
        "anysource", "collectives",
        "mg", "cg", "ft",
        "traffic-poisson", "traffic-bursty", "traffic-diurnal",
    ):
        assert name in names
    assert names == sorted(names)
    assert [s.name for s in scenarios()] == names


def test_unknown_workload_fails_loudly():
    with pytest.raises(ScenarioError, match="unknown workload 'nbody'"):
        get_scenario("nbody")
    # and the campaign runner surfaces the same build-time error
    with pytest.raises(ScenarioError, match="workload"):
        run_case("sdr", 0, CampaignConfig(workload="nbody"))


def test_registration_collision_is_loud():
    scenario = get_scenario("ring")
    with pytest.raises(ScenarioError, match="already registered"):
        register(scenario)
    # the failed re-registration must not have clobbered the entry
    assert get_scenario("ring") is scenario


# ---------------------------------------------------------------- envelopes
@pytest.mark.parametrize(
    "name, n_ranks, degree, message",
    [
        ("mg", 4, 2, "needs >= 8 ranks"),
        ("cg", 6, 2, "power-of-two"),
        ("cg", 2, 2, "needs >= 4 ranks"),
        ("ring", 1, 2, "needs >= 2 ranks"),
        ("ring", 4, 0, "degree must be >= 1"),
    ],
)
def test_envelopes_reject_invalid_shapes(name, n_ranks, degree, message):
    with pytest.raises(ScenarioError, match=message):
        get_scenario(name).check(n_ranks, degree)


def test_envelopes_accept_valid_shapes():
    get_scenario("mg").check(8, 2)
    get_scenario("cg").check(4, 1)
    get_scenario("ft").check(2, 3)


def test_max_ranks_envelope():
    s = Scenario("tiny", "bounded world", max_ranks=4)
    s.check(4, 1)
    with pytest.raises(ScenarioError, match="supports <= 4 ranks"):
        s.check(5, 1)


def test_respawn_support_is_declared_per_scenario():
    assert get_scenario("ring").supports_respawn
    assert get_scenario("traffic-poisson").supports_respawn
    # the NAS kernels take no state= — the fault sampler must never draw
    # churn/respawn mixes for them
    for name in ("mg", "cg", "ft"):
        assert not get_scenario(name).supports_respawn


def test_fault_sampler_gates_respawn_on_scenario_support():
    cfg = CampaignConfig(p_churn=1.0, p_respawn=1.0)
    sched, _plan, mix = sample_faults(3, cfg, "sdr", respawnable=True)
    assert "churn_ranks" in mix
    assert sched.respawns
    sched2, _plan2, mix2 = sample_faults(3, cfg, "sdr", respawnable=False)
    assert "churn_ranks" not in mix2
    assert not sched2.respawns


# ------------------------------------------------------------------ binding
def test_closed_loop_bind_defaults_to_steps_kwarg():
    calls = []

    def factory(mpi, steps=0):
        calls.append(steps)
        yield

    s = ClosedLoopScenario("probe", "test double", factory, expected_results)
    cfg = CampaignConfig(steps=7)
    bound = s.bind(cfg, seed=0)
    assert bound.factory is factory
    assert bound.kwargs == {"steps": 7}
    assert bound.expected == expected_results(cfg)
    assert bound.traffic is None


def test_nas_binding_models_campaign_scale_cores():
    cfg = CampaignConfig(n_ranks=8)
    for name in ("mg", "cg", "ft"):
        bound = get_scenario(name).bind(cfg, seed=0)
        assert bound.kwargs["klass"] == "S"
        assert bound.kwargs["iters"] == cfg.steps
        assert bound.kwargs["flops_per_core"] == CAMPAIGN_FLOPS_PER_CORE
    # ft additionally scales its transpose payloads to fit the horizon
    assert 0 < get_scenario("ft").bind(cfg, seed=0).kwargs["payload_scale"] < 1


@pytest.mark.parametrize(
    "name, n_ranks",
    [("mg", 8), ("cg", 4), ("ft", 4)],
)
def test_nas_expecteds_match_clean_runs(name, n_ranks):
    """The closed-form expected_fn is ground truth: a fault-free run under
    native and a replicated protocol must classify as completed, which
    requires every rank's app result to equal the expected value exactly."""
    cfg = CampaignConfig(workload=name, n_ranks=n_ranks, **MIX_PROFILES["clean"])
    for protocol in ("native", "sdr"):
        rec = run_case(protocol, 0, cfg)
        assert rec.outcome == "completed", (name, protocol, rec.metrics)
        assert rec.invariant_error is None


def test_nas_envelopes_enforced_at_build_time():
    cfg = CampaignConfig(workload="mg", n_ranks=4)
    with pytest.raises(ScenarioError, match="needs >= 8 ranks"):
        run_case("sdr", 0, cfg)


# -------------------------------------------------------- send-determinism
@pytest.mark.parametrize(
    "name", [s.name for s in scenarios() if isinstance(s, ClosedLoopScenario)]
)
def test_closed_loop_scenarios_are_send_deterministic(name):
    """Definition 1, sampled, over the whole closed-loop registry at each
    scenario's smallest legal shape: the paper's protocol is only correct
    for send-deterministic programs, so every workload the campaigns and
    sweeps run it on must be one (jittered replays may reorder receptions,
    never a rank's send sequence)."""
    scenario = get_scenario(name)
    n = scenario.min_ranks
    if scenario.pow2_ranks:
        n = 1 << (n - 1).bit_length()
    cfg = CampaignConfig(workload=name, n_ranks=n, steps=3)
    scenario.check(n, cfg.degree)
    bound = scenario.bind(cfg, seed=0)
    report = check_send_determinism(bound.factory, n, replays=3, **bound.kwargs)
    assert report.send_deterministic, report.divergences
