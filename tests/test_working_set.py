"""The run-time working-set contract (PR 8).

Memory layers that replaced — and for a while kept behind a ``Job(...)``
flag — the implementation before them:

* **a capped pool** — the job-wide frame free list (one object per
  message) is a plain pool bounded by ``repro.network.fabric.POOL_CAP``.  They were once also
  trimmed to a windowed high-water from the kernel's ``on_advance`` hook;
  that trimmer saved about 1 % of peak RSS once match state and pricing
  tables stopped growing with messages and peers, and was deleted;
* **live-only match lanes** (:class:`~repro.mpi.matching.MatchEngine`) —
  int-list lanes over the pending entries only, so match state is
  O(pending), not O(messages ever seen).

All are host-side memory policy and must be *observationally invisible* —
per-rank results, bit-identical virtual times, dispatched-event and frame
counts — across all five protocols, crash-free and crashy.  Payloads and
the arenas are asserted against ``tests/data/spec_fingerprints.jsonl``,
the answers ``interning=False`` and ``arena_trim=False`` (alone, and
inside the full spec stack) gave on their last run at commit 0e78e89 —
provenance in ``test_pooling_equivalence``'s docstring; with no intern
table, a payload stays the object its sender posted.  Matching still has a
live second side with no production seam: the
:class:`~repro.mpi.matching.LinearMatchEngine` oracle drives whole jobs
patched over ``repro.mpi.pml.MatchEngine``.  The zero-leak balance
(``acquired == released + stranded``) must hold whatever the cap drops.
"""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.mpi.datatypes import Phantom
from repro.mpi.matching import LinearMatchEngine
from repro.scenarios.ablation import anysource_fanin, ring_collectives
from tests.conftest import (
    PROTOCOLS,
    assert_matches_corpus,
    load_corpus,
    make_job as _job,
    mixed_traffic,
    run_traffic,
)

CORPUS = load_corpus("spec_fingerprints.jsonl")
SPEC = "memory-flags-off spec"


def _run_on_linear_oracle(protocol, n, rounds, crash_at=None):
    """One ``mixed_traffic`` run with every PML on the matching-order oracle."""
    with mock.patch("repro.mpi.pml.MatchEngine", LinearMatchEngine):
        job = _job(protocol, n)
    assert all(type(pml.matching) is LinearMatchEngine for pml in job.pmls.values())
    return run_traffic(job, rounds, crash_at)


# ------------------------------------------------- flag equivalence (crash-free)
class TestFlagEquivalence:
    """Memory policy is unobservable, bit for bit, across all five protocols."""

    def test_memory_flags_unobservable(self):
        assert_matches_corpus(CORPUS, "traffic", SPEC, lambda c: c["params"]["crash_at"] is None)

    @settings(max_examples=15, deadline=None)
    @given(
        protocol=st.sampled_from(PROTOCOLS),
        n=st.sampled_from([2, 3, 4]),
        rounds=st.integers(min_value=1, max_value=3),
    )
    def test_soa_engine_matches_linear_spec(self, protocol, n, rounds):
        indexed = run_traffic(_job(protocol, n), rounds)
        linear = _run_on_linear_oracle(protocol, n, rounds)
        assert indexed == linear, f"indexed engine diverged from linear spec ({protocol})"

    def test_all_flags_off_together(self):
        """The fully seed-shaped stack (every spec mode at once) agreed
        with the fully optimized one: its recorded answers still hold."""
        assert_matches_corpus(
            CORPUS, "traffic", "full spec stack",
            lambda c: c["n"] == 4 and c["params"] == {"rounds": 2, "crash_at": None},
        )


# ---------------------------------------------------- flag equivalence (crashy)
class TestFlagEquivalenceUnderFailover:
    """Crashes and failover resends must not observe the memory policy.

    Some (protocol, crash-time) pairs legitimately wedge; the deadlock —
    down to the blocked-process set — is then the outcome both sides must
    agree on, and the arenas must still balance.
    """

    def test_memory_flags_unobservable_on_crashes(self):
        assert_matches_corpus(CORPUS, "traffic", SPEC, lambda c: c["params"]["crash_at"] is not None)

    @settings(max_examples=10, deadline=None)
    @given(
        protocol=st.sampled_from(["sdr", "mirror", "leader"]),
        crash_at=st.sampled_from([2e-5, 9e-5]),
    )
    def test_soa_engine_matches_linear_spec_on_crashes(self, protocol, crash_at):
        indexed = run_traffic(_job(protocol, 4), 3, crash_at)
        linear = _run_on_linear_oracle(protocol, 4, 3, crash_at)
        assert indexed == linear, f"indexed engine diverged under failover ({protocol})"


# --------------------------------------------------------------- arena cap
class TestPoolCap:
    """``POOL_CAP`` is the free list's only bound."""

    @staticmethod
    def _fanin(cap, monkeypatch):
        monkeypatch.setattr("repro.network.fabric.POOL_CAP", cap)
        job = _job("leader", n=16)
        return job, job.launch(anysource_fanin, rounds=20).run()  # run() audits the pool

    def test_cap_bounds_every_pool_under_fan_in(self, monkeypatch):
        """Leader fan-in parks the senders' messages at the root, so the
        one job-wide pool outgrows any burst of a single channel: capped at
        8, it stays at 8 or below and the books still balance."""
        _, uncapped = self._fanin(4096, monkeypatch)
        assert uncapped.fabric["frame_pool_size"] > 8
        job, res = self._fanin(8, monkeypatch)
        assert res.fabric["frame_pool_size"] <= 8
        job._assert_arenas_balanced()
        assert res.app_results == uncapped.app_results and res.events == uncapped.events

    def test_serial_job_installs_no_advance_hook(self):
        job = _job("sdr", n=4).launch(mixed_traffic, rounds=1)
        assert job.sim.on_advance is None
        job.run()
        assert job.sim.on_advance is None


# ------------------------------------------------------------ payload identity
class TestPayloadIdentity:
    def test_posted_payloads_arrive_as_posted(self):
        """No job-wide table stands between sender and receiver: equal
        Phantom sends stay distinct objects, in the inbox and parked
        unexpected alike."""
        job = _job("native", n=2)
        sender, receiver = job.pmls[0], job.pmls[1]
        posted = [Phantom(512) for _ in range(4)]
        for i, payload in enumerate(posted):
            sender.post_send(("w",), 0, i, payload, 0, 1, i, 1, 512)
        job.sim.run()  # the four eager frames land in the receiver's inbox
        envs = list(receiver.endpoint.inbox)
        assert [env.kind for env in envs] == ["eager"] * 4
        assert all(env.data is sent for env, sent in zip(envs, posted))
        for env in envs:  # no receives posted: all four park unexpected
            assert receiver.matching.arrive(env) is None
        parked = receiver.matching.unexpected
        assert [env.data for env in parked] == posted
        assert len({id(env.data) for env in parked}) == 4


# ---------------------------------------------------------- live-only matching
class TestLiveOnlyMatching:
    """Match state follows what is pending, not the run length (deterministic
    and RSS-free: the measure is :meth:`MatchEngine.footprint`)."""

    @staticmethod
    def _run_sampled(protocol, n, app, **kwargs):
        """Run *app*; returns (job, result, per-proc high-water (lanes, cells))
        sampled at every quiescent point of the kernel."""
        job = _job(protocol, n=n).launch(app, **kwargs)
        engines = {proc: pml.matching for proc, pml in job.pmls.items()}
        high = {proc: (0, 0) for proc in engines}

        def sample():
            for proc, engine in engines.items():
                lanes, cells = engine.footprint()
                high[proc] = (max(high[proc][0], lanes), max(high[proc][1], cells))

        job.sim.on_advance = sample
        return job, job.run(), high

    @pytest.mark.parametrize("protocol", ["native", "sdr", "leader"])
    def test_ring_collectives_state_is_flat_in_iterations(self, protocol):
        """A fresh tag per collective round must not leave a lane behind:
        20 and 60 iterations peak at the same footprint on every engine and
        end with none."""
        runs = [
            self._run_sampled(protocol, 8, ring_collectives, iters=iters, nbytes=4096)
            for iters in (20, 60)
        ]
        (_j20, _r20, high20), (job60, _r60, high60) = runs
        assert high20 == high60
        assert max(lanes for lanes, _cells in high60.values()) > 0  # the sampler saw work
        for pml in job60.pmls.values():
            assert pml.matching.footprint() == (0, 0)

    @pytest.mark.parametrize("protocol", ["sdr", "leader"])
    def test_anysource_root_state_is_bounded_by_unexpected_peak(self, protocol):
        """The fan-in root parks up to n-1 envelopes per round under one
        wildcard pattern: one queue entry and one lane element each, plus
        the lane's cursor — whatever the number of rounds."""
        (_j20, _r20, high20), (job60, res60, high60) = [
            self._run_sampled(protocol, 16, anysource_fanin, rounds=rounds) for rounds in (20, 60)
        ]
        assert high20 == high60
        root = job60.rmap.phys(0, 0)
        peak = res60.stats[root]["unexpected_peak"]
        assert peak > 1
        lanes, cells = high60[root]
        assert lanes == 1
        assert cells <= 2 * peak + 1
        for pml in job60.pmls.values():
            assert pml.matching.footprint() == (0, 0)


# ------------------------------------------------------------- high-water marks
class TestHighWaterMarks:
    def test_env_high_water_bounds_pool(self):
        """One pool for every message (envelopes included): it never
        retains more shells than were ever outstanding at once."""
        res = _job("sdr", n=4).launch(mixed_traffic, rounds=3).run()
        assert res.fabric["frame_high_water"] >= 1
        assert res.fabric["frame_pool_size"] <= res.fabric["frame_high_water"]


# ------------------------------------------------------------ kernel on_advance
class TestOnAdvanceHook:
    def test_fires_between_timestamps_not_per_event(self):
        from repro.sim.kernel import Simulator

        sim = Simulator()
        seen = []
        sim.on_advance = lambda: seen.append(sim.now)
        fired = []
        for t in (1.0, 1.0, 2.0, 4.0):
            sim.call_at(t, lambda t=t: fired.append(t))
        sim.run()
        # one advance per distinct timestamp with a successor
        assert seen == [0.0, 1.0, 2.0]
        assert fired == [1.0, 1.0, 2.0, 4.0]
        assert sim.events_dispatched == 4

    def test_hook_does_not_count_as_events(self):
        from repro.sim.kernel import Simulator

        def drive(hooked):
            sim = Simulator()
            if hooked:
                sim.on_advance = lambda: None
            for t in (1.0, 2.0, 3.0):
                sim.call_at(t, lambda: None)
            sim.run()
            return sim.events_dispatched

        assert drive(True) == drive(False) == 3
