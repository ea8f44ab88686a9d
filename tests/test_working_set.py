"""The run-time working-set contract (PR 8).

Three coordinated memory layers, each of which replaced — and until PR 16
kept behind a ``Job(...)`` flag — the implementation before it:

* **payload interning** — a job-wide
  :class:`~repro.mpi.datatypes.PayloadInterner` collapses the millions of
  size-only ``Phantom`` snapshots (and small immutable bytes/str
  payloads) to one object per distinct value;
* **high-water-trimmed arenas** — the Frame/Envelope free lists are
  capped at a windowed high-water bound by a trimmer running from the
  kernel's quiescent-point ``on_advance`` hook;
* **live-only match lanes** (:class:`~repro.mpi.matching.MatchEngine`) —
  int-list lanes over the pending entries only, so match state is
  O(pending), not O(messages ever seen).

All three are host-side memory policy and must be *observationally
invisible* — per-rank results, bit-identical virtual times, dispatched-
event and frame counts — across all five protocols, crash-free and crashy.
Interning has lost its second side: it is asserted against
``tests/data/spec_fingerprints.jsonl``, the answers ``interning=False`` and
``arena_trim=False`` (alone, and inside the full spec stack) gave on their
last run at commit 0e78e89 — provenance in ``test_pooling_equivalence``'s
docstring.  The other two still have one, with no production seam: the
:class:`~repro.mpi.matching.LinearMatchEngine` oracle drives whole jobs
patched over ``repro.mpi.pml.MatchEngine``, and trim policy is compared
through ``Job.TRIM_INTERVAL`` (10⁹ = never, 1 = always).  The zero-leak
balance (``acquired == released + stranded``) must keep holding while
trims drop pooled shells.
"""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.harness.report import render_table, working_set_rows
from repro.harness.runner import Job
from repro.mpi.datatypes import PayloadInterner, Phantom
from repro.mpi.errors import DeadlockError
from repro.mpi.matching import LinearMatchEngine
from repro.mpi.pml import Pml
from repro.network.fabric import Fabric
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


# -------------------------------------------------------------- arena trimming
class TestArenaTrim:
    """The quiescent-point trimmer: pools shrink, books still balance."""

    def test_forced_trims_stay_unobservable_and_balanced(self, monkeypatch):
        """Trim at *every* quiescent point (interval 1, full sweep, no
        slack): the most aggressive policy possible must still be
        fingerprint-identical to never trimming at all, crash-free and
        crashy."""
        monkeypatch.setattr(Job, "TRIM_PROCS", 10_000)
        monkeypatch.setattr(Pml, "TRIM_SLACK", 0)
        monkeypatch.setattr(Fabric, "TRIM_SLACK", 0)
        for crash_at in (None, 2e-5):
            runs = []
            for interval in (10**9, 1):
                monkeypatch.setattr(Job, "TRIM_INTERVAL", interval)
                job = _job("sdr", 4)
                runs.append(run_traffic(job, 3, crash_at))
            assert job.fabric.frames_trimmed + sum(p.env_trimmed for p in job.pmls.values()) > 0
            assert runs[0] == runs[1]

    def test_trim_caps_pool_and_counts_drops(self):
        """Unit-level policy check: a pool bloated past the windowed
        high-water is cut to ``window + TRIM_SLACK`` and the drop counted;
        the arena balance is untouched (trimmed shells were released)."""
        job = _job("native", n=2)
        pml = job.pmls[0]
        # Warm the pool far beyond any real outstanding count.
        envs = [
            pml.acquire_env("eager", ("w",), 0, 1, 0, 1, i, 8, None, 1)
            for i in range(200)
        ]
        for env in envs:
            pml.release_env(env)
        assert len(pml._env_pool) == 200
        assert pml.env_hw_window == 200
        dropped = pml.trim_env_pool()  # folds the window, no cut yet
        assert dropped == 0 and pml.env_high_water == 200
        assert pml.env_hw_window == 0  # nothing outstanding now
        dropped = pml.trim_env_pool()  # second window saw no traffic: cut
        assert dropped == 200 - pml.TRIM_SLACK
        assert len(pml._env_pool) == pml.TRIM_SLACK
        assert pml.env_trimmed == dropped
        assert pml.stats()["env_high_water"] == 200
        # books: acquired == released, trimming moved nothing
        assert pml.env_acquired == pml.env_released == 200

    def test_fabric_trim_mirrors_pml_policy(self):
        job = _job("native", n=2)
        fab = job.fabric
        frames = [fab.acquire_frame(0, 1, 8, None) for _ in range(100)]
        for f in frames:
            fab.release_frame(f)
        assert len(fab._frame_pool) == 100
        fab.trim_frame_pool()
        dropped = fab.trim_frame_pool()
        assert dropped == 100 - fab.TRIM_SLACK
        assert fab.frames_trimmed == dropped
        assert fab.stats()["frame_high_water"] == 100

    def test_balance_holds_with_trimming_across_protocols(self, monkeypatch):
        """Zero-leak proof under constant trimming, every protocol, with a
        crash landing mid-traffic."""
        monkeypatch.setattr(Job, "TRIM_INTERVAL", 1)
        monkeypatch.setattr(Job, "TRIM_PROCS", 10_000)
        for protocol in ["sdr", "mirror", "leader", "redmpi"]:
            job = _job(protocol, n=4)
            job.launch(mixed_traffic, rounds=3)
            job.crash(1, 1, at=2e-5)
            try:
                job.run()  # run() audits on completion
            except DeadlockError:
                job._assert_arenas_balanced()


# ------------------------------------------------------------------ interning
class TestPayloadInterning:
    def test_phantoms_collapse_to_one_object(self):
        interner = PayloadInterner()
        a, b = Phantom(4096), Phantom(4096)
        assert a is not b
        canon = interner.intern(a)
        assert interner.intern(b) is canon
        assert interner.intern(Phantom(4096)) is canon
        assert interner.hits == 2 and interner.misses == 1

    def test_numeric_payloads_never_interned(self):
        """``True == 1`` and ``-0.0 == 0.0`` would conflate distinct
        payloads under a value key — numerics must pass through."""
        interner = PayloadInterner()
        for first, second in [(1, True), (0.0, -0.0)]:
            out = interner.intern(second)
            assert out is second
            interner.intern(first)
            assert interner.intern(second) is second
        assert interner.hits == 0

    def test_small_immutables_interned_large_not(self):
        interner = PayloadInterner()
        # runtime-constructed so no two are the same object
        small_a, small_b = bytes(bytearray(16)), bytes(bytearray(16))
        assert small_a is not small_b
        canon = interner.intern(small_a)
        assert interner.intern(small_b) is canon
        assert interner.hits == 1
        n = PayloadInterner.SMALL_LIMIT + 1
        big_a, big_b = bytes(bytearray(n)), bytes(bytearray(n))
        assert interner.intern(big_a) is big_a
        assert interner.intern(big_b) is big_b  # never tabled
        assert interner.hits == 1

    def test_table_is_bounded(self):
        interner = PayloadInterner()
        for i in range(PayloadInterner.MAX_ENTRIES + 50):
            interner.intern(Phantom(i))
        assert len(interner._phantoms) == PayloadInterner.MAX_ENTRIES
        # known values still hit; overflow values stay misses
        assert interner.intern(Phantom(0)) is not None
        before = interner.hits
        interner.intern(Phantom(PayloadInterner.MAX_ENTRIES + 10))
        assert interner.hits == before

    def test_job_counters_surface_in_result(self):
        res = _job("sdr", n=4).launch(mixed_traffic, rounds=3).run()
        assert res.payload_interned > 0
        assert res.payload_misses > 0

    def test_unexpected_phantoms_share_one_snapshot(self):
        """The working-set win itself: distinct Phantom sends parked in an
        unexpected queue hold the same canonical object."""
        job = _job("native", n=2)
        sender, receiver = job.pmls[0], job.pmls[1]
        envs = [
            sender.acquire_env(
                "eager", ("w",), 0, i, 0, 1, i, 512, Phantom(512), 1
            )
            for i in range(4)
        ]
        datas = {id(env.data) for env in envs}
        assert datas == {id(envs[0].data)}, "acquire_env did not intern"
        # park them all unexpected (no receives posted) and re-check
        for env in envs:
            assert receiver.matching.arrive(env) is None
        parked = receiver.matching.unexpected
        assert len(parked) == 4
        assert all(env.data is parked[0].data for env in parked)


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
        trim = job.sim.on_advance

        def sample():
            for proc, engine in engines.items():
                lanes, cells = engine.footprint()
                high[proc] = (max(high[proc][0], lanes), max(high[proc][1], cells))
            if trim is not None:
                trim()

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
        res = _job("sdr", n=4).launch(mixed_traffic, rounds=3).run()
        for proc, stats in res.stats.items():
            assert stats["env_high_water"] >= 1
            assert stats["env_pool_size"] <= stats["env_high_water"], (
                f"proc {proc}: pool retained beyond its high-water"
            )
        assert res.fabric["frame_high_water"] >= 1
        assert res.fabric["frame_pool_size"] <= res.fabric["frame_high_water"]

    def test_report_rows_render(self):
        res = _job("sdr", n=4).launch(mixed_traffic, rounds=2).run()
        header, rows = working_set_rows([("sdr/n4", res)])
        table = render_table("working set", header, rows)
        assert "interned" in table and "env hw" in table
        assert rows[0][1] == res.payload_interned


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
