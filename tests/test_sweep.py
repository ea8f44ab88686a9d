"""Sweep orchestrator: matrix validation, pooled determinism, store, report.

The determinism contract under test: every config's fingerprint is
byte-identical whether the sweep runs serially or across a
multiprocessing pool, cold cache or warm — the per-worker ShapeCache only
reuses construction that is a pure function of (protocol, degree,
n_ranks).  The hypothesis suite pins warm-vs-cold equivalence per config;
the pooled test pins serial-vs-pool equivalence over a whole matrix; the
crash test pins that a dying worker costs one config, not the sweep.
TestRunMemo pins the run memo's soundness: a served record equals a fresh
simulation field by field, and nothing that could see its seed is ever
stored or served.
"""

import json
import multiprocessing as mp
import os
import signal
import time
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.harness.campaign as campaign_mod
from repro.core.config import PROTOCOLS, ReplicationConfig
from repro.harness.campaign import OUTCOMES, CampaignConfig, RunMemo, run_case, sample_faults
from repro.harness.report import render_table, sweep_outcome_rows
from repro.harness.runner import Job, JobShape, cluster_for
from repro.harness.store import StoreError, SweepStore, atomic_write_text
from repro.harness.sweep import (
    DETECTOR_PROFILES,
    MIX_PROFILES,
    ShapeCache,
    SweepError,
    SweepPoint,
    SweepSpec,
    _execute_point,
    render_sweep_report,
    run_sweep,
    verify_sample,
)
from repro.scenarios import ScenarioError, get_scenario, scenarios
from repro.scenarios.base import _REGISTRY, ClosedLoopScenario
from repro.scenarios.spmd import campaign_app, expected_results

SMALL = SweepSpec(
    protocols=("native", "sdr"), degrees=(2,), ranks=(4,),
    workloads=("ring",), mixes=("clean", "full"), seeds=(0, 1),
)


class TestSpecValidation:
    def test_empty_axis_rejected(self):
        with pytest.raises(SweepError, match="'protocols' is empty"):
            SweepSpec(protocols=())
        with pytest.raises(SweepError, match="'seeds' is empty"):
            SweepSpec(seeds=())

    def test_unknown_values_rejected(self):
        with pytest.raises(SweepError, match="unknown 'tmr'"):
            SweepSpec(protocols=("sdr", "tmr"))
        with pytest.raises(SweepError, match="unknown 'stencil'"):
            SweepSpec(workloads=("stencil",))
        with pytest.raises(SweepError, match="unknown 'cosmic'"):
            SweepSpec(mixes=("cosmic",))

    def test_degree_rules(self):
        # Any replicated protocol in the matrix demands degree >= 2 ...
        with pytest.raises(SweepError, match="'degrees'.*below the minimum 2"):
            SweepSpec(protocols=("native", "sdr"), degrees=(1,))
        # ... but a native-only sweep happily runs r=1.
        SweepSpec(protocols=("native",), degrees=(1,))

    def test_rank_and_seed_floors(self):
        with pytest.raises(SweepError, match="'ranks'.*below the minimum 2"):
            SweepSpec(ranks=(4, 1))
        with pytest.raises(SweepError, match="'seeds'.*below the minimum 0"):
            SweepSpec(seeds=(-1,))

    def test_duplicates_and_wrong_types_rejected(self):
        with pytest.raises(SweepError, match="duplicate"):
            SweepSpec(seeds=(0, 1, 0))
        with pytest.raises(SweepError, match="is not int"):
            SweepSpec(ranks=(4, "8"))
        with pytest.raises(SweepError, match="is not int"):
            SweepSpec(seeds=(True,))  # bools are not seeds

    def test_scalar_knobs_validated(self):
        with pytest.raises(SweepError, match="steps"):
            SweepSpec(steps=0)
        with pytest.raises(SweepError, match="active"):
            SweepSpec(active=1.0, horizon=1e-3)

    def test_points_enumeration_and_native_dedup(self):
        # native ignores the degree axis: one emission per remaining axes,
        # not one per degree — no duplicate configs that would fingerprint
        # identically.
        spec = SweepSpec(
            protocols=("native", "sdr"), degrees=(2, 3), ranks=(4,),
            workloads=("ring",), mixes=("clean",), seeds=(0,),
        )
        pts = spec.points()
        assert len(pts) == 1 + 2  # native once, sdr at r=2 and r=3
        assert [p.index for p in pts] == list(range(len(pts)))
        assert spec.n_configs == len(pts)
        native = [p for p in pts if p.protocol == "native"]
        assert len(native) == 1 and native[0].effective_degree == 1
        assert native[0].label() == "native/r1/n4/ring/clean/s0"

    def test_campaign_config_applies_mix_profile(self):
        spec = SweepSpec(protocols=("sdr",), mixes=("clean",), seeds=(0,))
        cfg = spec.points()[0].campaign_config()
        assert isinstance(cfg, CampaignConfig)
        for knob, value in MIX_PROFILES["clean"].items():
            assert getattr(cfg, knob) == value
        # "full" is the campaign's own default odds: no overrides at all.
        assert MIX_PROFILES["full"] == {}


class TestShapeCache:
    def test_hit_miss_accounting(self):
        cache = ShapeCache()
        a = cache.get("sdr", 2, 4)
        b = cache.get("sdr", 2, 4)
        c = cache.get("native", 1, 4)
        assert a is b and c is not a
        assert cache.stats() == {"hits": 1, "misses": 2, "shapes": 2}

    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        protocol=st.sampled_from(["native", "sdr", "mirror"]),
        mix=st.sampled_from(sorted(MIX_PROFILES)),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_warm_cache_cannot_change_fingerprints(self, protocol, mix, seed):
        # Reusing campaign fingerprint machinery: the same config executed
        # against a cold cache and against a cache warmed by *other*
        # configs must produce byte-identical fingerprints.
        spec = SweepSpec(
            protocols=(protocol,), degrees=(2,), ranks=(4,),
            mixes=(mix,), seeds=(seed,),
        )
        point = spec.points()[0]
        cold = _execute_point(point, ShapeCache())
        warm_cache = ShapeCache()
        for p in ("native", "sdr", "mirror"):
            warm_cache.get(p, 1 if p == "native" else 2, 4)
        warm = _execute_point(point, warm_cache)
        assert cold["fingerprint"] == warm["fingerprint"]
        assert warm_cache.hits >= 1


class TestPooledExecution:
    def test_pool_matches_serial_byte_for_byte(self):
        serial = run_sweep(SMALL, workers=1)
        pooled = run_sweep(SMALL, workers=2)
        assert serial.fingerprints == pooled.fingerprints
        assert all(serial.fingerprints)  # every config actually ran
        assert pooled.cache["hits"] > 0  # the flyweight reuse is real
        assert pooled.worker_crashes == 0
        assert [r["index"] for r in pooled.records] == list(range(SMALL.n_configs))
        # The run memo: the pool deals whole memo cells, so it serves what
        # serial serves (seed 1 of both clean cells) — and the records
        # cannot tell (nor can a memo-less execution).
        memoless = [_execute_point(p, ShapeCache()) for p in SMALL.points()]
        assert serial.records == pooled.records == memoless
        assert serial.served == [1, 5] and serial.cache["memo_hits"] == 2
        assert pooled.served == serial.served
        assert pooled.cache["memo_hits"] == serial.cache["memo_hits"]
        assert "memo_hits" in pooled.summary()["cache"]

    def test_one_cell_matrix_still_spreads_over_the_pool(self):
        # One memo cell of 4 faulted seeds: cut into ceil(4 / 2) = 2-config
        # groups, one per worker, so each worker builds the shape once.
        spec = SweepSpec(protocols=("sdr",), mixes=("full",), seeds=(0, 1, 2, 3))
        result = run_sweep(spec, workers=2)
        assert result.cache["misses"] == 2 and result.cache["memo_hits"] == 0
        assert result.records == run_sweep(spec, workers=1).records

    def test_worker_crash_marks_config_failed_and_keeps_draining(self, monkeypatch):
        import repro.harness.sweep as sweep_mod

        real = sweep_mod._execute_point

        def killed_at_2(point, *args):
            if point.index == 2:  # only ever reached in a forked worker
                os.kill(os.getpid(), signal.SIGKILL)
            return real(point, *args)

        monkeypatch.setattr(sweep_mod, "_execute_point", killed_at_2)
        spec = SweepSpec(
            protocols=("native", "sdr"), degrees=(2,), ranks=(4,),
            workloads=("ring",), mixes=("clean",), seeds=(0, 1, 2),
        )
        t0 = time.monotonic()
        result = run_sweep(spec, workers=2)
        assert time.monotonic() - t0 < 10  # no poll, no respawn budget to burn
        assert len(result.records) == spec.n_configs  # the sweep drained
        assert result.worker_crashes == 1
        dead = [r for r in result.records if not r["fingerprint"]]
        assert len(dead) == 1 and dead[0]["index"] == 2
        assert dead[0]["outcome"] == "failed" and "exit code -9" in dead[0]["error"]
        # Every other config still carries a real audited fingerprint.
        assert all(r["fingerprint"] for r in result.records if r["index"] != 2)
        assert mp.active_children() == []

    def test_crash_mid_group_hands_the_rest_to_a_replacement(self, monkeypatch):
        import repro.harness.sweep as sweep_mod

        real = sweep_mod._execute_point
        parent = os.getpid()

        def killed_at_0(point, *args):
            if point.index == 0 and os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return real(point, *args)

        monkeypatch.setattr(sweep_mod, "_execute_point", killed_at_0)
        # One cell dealt as [0, 1] and [2, 3]: config 1 outlives its worker.
        spec = SweepSpec(protocols=("sdr",), mixes=("clean",), seeds=(0, 1, 2, 3))
        result = run_sweep(spec, workers=2)
        assert result.worker_crashes == 1
        assert [r["index"] for r in result.records if not r["fingerprint"]] == [0]
        assert result.records[1:] == run_sweep(spec, workers=1).records[1:]

    def test_dead_between_groups_costs_no_config(self, monkeypatch):
        # The first worker dealt a second group is killed (and reaped)
        # right before that deal: the send breaks, the group goes whole to
        # a replacement, and every record still matches serial.
        from repro.sim.pool import Pool

        real_send, dealt, killed = Pool.send, set(), []

        def send(pool, wid, msg):
            if wid in dealt and not killed:
                killed.append(wid)
                os.kill(pool._procs[wid].pid, signal.SIGKILL)
                pool._procs[wid].join()
            dealt.add(wid)
            return real_send(pool, wid, msg)

        monkeypatch.setattr(Pool, "send", send)
        spec = replace(SMALL, seeds=(0, 1, 2, 3))  # four cells, two workers
        result = run_sweep(spec, workers=2)
        assert killed and result.worker_crashes == 1
        assert result.records == run_sweep(spec, workers=1).records
        assert mp.active_children() == []

    def test_raising_progress_callback_leaves_no_live_worker(self):
        # 1,000 memo-served seeds deal 500-config groups whose ~1 KB replies
        # overfill the pipe: a worker blocked mid-group reads no exit ask,
        # so leaving through an exception must not wait for one.
        def progress(rec):
            raise RuntimeError("interrupted")

        spec = replace(SMALL, protocols=("sdr",), mixes=("clean",), seeds=tuple(range(1000)))
        t0 = time.monotonic()
        with pytest.raises(RuntimeError, match="interrupted"):
            run_sweep(spec, workers=2, progress=progress)
        assert time.monotonic() - t0 < 5
        assert mp.active_children() == []

    def test_verify_sample_passes_and_catches_tampering(self):
        result = run_sweep(SMALL, workers=1)
        assert verify_sample(SMALL, result.records, k=3) == []
        tampered = [dict(r) for r in result.records]
        tampered[0]["fingerprint"] = tampered[0]["fingerprint"] + "x"
        mismatches = verify_sample(SMALL, tampered, k=SMALL.n_configs)
        assert len(mismatches) == 1 and "config #0" in mismatches[0]
        assert "memo" not in mismatches[0]  # config #0 was simulated

    def test_verify_sample_always_reproves_a_memo_hit(self):
        result = run_sweep(SMALL, workers=1)
        assert result.served == [1, 5]
        tampered = [dict(r) for r in result.records]
        tampered[1]["fingerprint"] = tampered[1]["fingerprint"] + "x"
        # k=1 samples config #0 alone; the served config joins the sample.
        assert verify_sample(SMALL, tampered, k=1) == []
        mismatches = verify_sample(SMALL, tampered, k=1, served=result.served)
        assert len(mismatches) == 1
        assert "config #1" in mismatches[0] and "run memo" in mismatches[0]
        assert verify_sample(SMALL, result.records, k=1, served=result.served) == []

    def test_invariant_violation_surfaces_in_result(self, monkeypatch):
        import repro.harness.sweep as sweep_mod
        from repro.harness.campaign import RunRecord

        def bad_run_case(protocol, seed, cfg=None, shape=None, memo=None):
            return RunRecord(
                protocol=protocol, seed=seed, outcome="completed",
                mix={}, metrics={}, stranded_by_site={},
                invariant_error="arena imbalance: acquired != released + stranded",
                fingerprint="{}",
            )

        monkeypatch.setattr(sweep_mod, "run_case", bad_run_case)
        result = run_sweep(SMALL, workers=1)
        assert len(result.violations) == SMALL.n_configs


class TestStore:
    @staticmethod
    def _record(idx, fingerprint="fp"):
        return {
            "index": idx, "protocol": "sdr", "degree": 2, "n_ranks": 4,
            "workload": "ring", "mix": "clean", "seed": idx,
            "outcome": "completed", "faults_drawn": {},
            "metrics": {"events": 10 + idx, "runtime": 0.5},
            "stranded_by_site": {}, "error": None, "invariant_error": None,
            "fingerprint": fingerprint,
        }

    def test_round_trip(self, tmp_path):
        base = str(tmp_path / "sweep")
        store = SweepStore.create(base)
        for i in (1, 0, 2):  # completion order is not config order
            store.append(self._record(i))
        store.finalize({"workers": 2})
        with SweepStore.open(base) as ro:
            recs = ro.records()
            assert [r["index"] for r in recs] == [0, 1, 2]  # idx order wins
            assert ro.summary == {"workers": 2}
            assert ro.sql("SELECT COUNT(*) FROM runs")[0][0] == 3
            assert ro.sql(
                "SELECT events FROM runs WHERE idx = ?", (2,)
            ) == [(12,)]
            assert ro.records("seed = ?", (1,))[0]["seed"] == 1

    def test_collision_is_loud_and_overwrite_opt_in(self, tmp_path):
        base = str(tmp_path / "sweep")
        store = SweepStore.create(base)
        store.append(self._record(0))
        store.finalize()
        with pytest.raises(StoreError, match="already exist"):
            SweepStore.create(base)
        replacement = SweepStore.create(base, overwrite=True)
        replacement.append(self._record(0, fingerprint="new"))
        replacement.finalize()
        with SweepStore.open(base) as ro:
            assert ro.records()[0]["fingerprint"] == "new"

    def test_abandon_leaves_no_partials_and_no_finals(self, tmp_path):
        base = str(tmp_path / "sweep")
        with SweepStore.create(base) as store:
            store.append(self._record(0))
            # no finalize: the context manager abandons the .partials
        assert os.listdir(tmp_path) == []
        with pytest.raises(StoreError, match="no finalized store"):
            SweepStore.open(base)

    def test_open_names_unfinalized_partials(self, tmp_path):
        base = str(tmp_path / "sweep")
        store = SweepStore.create(base)
        store.append(self._record(0))
        with pytest.raises(StoreError, match="never finalized"):
            SweepStore.open(base)
        store.abandon()

    def test_interrupted_sweep_leaves_only_partials(self, tmp_path):
        """A sweep killed mid-run (no finalize, no abandon) leaves nothing
        under a final name, and every record streamed so far is on disk."""
        base = str(tmp_path / "sweep")
        store = SweepStore.create(base)
        for i in (2, 0, 1):
            store.append(self._record(i))
        del store  # the process dies here
        left = os.listdir(tmp_path)
        assert left and all(name.endswith(".partial") for name in left)
        with open(base + ".jsonl.partial") as fh:
            assert [json.loads(line)["index"] for line in fh] == [2, 0, 1]
        with pytest.raises(StoreError, match="never finalized"):
            SweepStore.open(base)
        # the next sweep over the same base starts clean
        SweepStore.create(base).finalize()
        with SweepStore.open(base) as ro:
            assert ro.records() == []

    def test_finalized_index_returns_every_row_in_idx_order(self, tmp_path):
        base = str(tmp_path / "sweep")
        store = SweepStore.create(base)
        order = [(7 * i) % 60 for i in range(60)]  # a permutation of 0..59
        for i in order:
            store.append(self._record(i, fingerprint=f"fp{i}"))
        assert not os.path.exists(base + ".sqlite")  # the index is written at finalize
        store.finalize({"n": 60})
        assert sorted(os.listdir(tmp_path)) == ["sweep.jsonl", "sweep.sqlite"]
        with SweepStore.open(base) as ro:
            assert [r["index"] for r in ro.records()] == list(range(60))
            assert ro.sql("SELECT idx, fingerprint FROM runs ORDER BY idx") == [
                (i, f"fp{i}") for i in range(60)
            ]
            assert ro.sql("SELECT COUNT(*) FROM runs WHERE outcome = 'completed'") == [(60,)]
        with open(base + ".jsonl") as fh:  # the stream keeps completion order
            assert [json.loads(line)["index"] for line in fh] == order

    def test_missing_parent_dir_rejected(self, tmp_path):
        with pytest.raises(StoreError, match="directory does not exist"):
            SweepStore.create(str(tmp_path / "nowhere" / "sweep"))

    def test_run_sweep_streams_to_store(self, tmp_path):
        base = str(tmp_path / "sweep")
        result = run_sweep(SMALL, workers=2, store_base=base)
        with SweepStore.open(base) as ro:
            assert [r["fingerprint"] for r in ro.records()] == result.fingerprints
            assert ro.summary["cache"] == result.cache

    @pytest.mark.parametrize("workers", [1, 2])
    def test_store_cannot_tell_a_memo_sweep_from_a_memoless_one(self, tmp_path, workers):
        base = str(tmp_path / "sweep")
        result = run_sweep(SMALL, workers=workers, store_base=base)
        memoless = [_execute_point(p, ShapeCache()) for p in SMALL.points()]
        want = [json.dumps(r, sort_keys=True, separators=(",", ":")) for r in memoless]
        with SweepStore.open(base) as ro:
            assert ro.records() == [json.loads(line) for line in want]
        with open(base + ".jsonl") as fh:  # completion order; index is the identity
            lines = sorted(fh.read().splitlines(), key=lambda ln: json.loads(ln)["index"])
        assert lines == want
        assert result.records == memoless

    def test_atomic_write_text(self, tmp_path):
        target = tmp_path / "artifact.json"
        atomic_write_text(str(target), '{"ok": true}')
        assert target.read_text() == '{"ok": true}'
        assert os.listdir(tmp_path) == ["artifact.json"]  # no tmp residue


class TestReporting:
    def test_sweep_outcome_rows_groups_and_survival(self):
        records = [
            {"protocol": "sdr", "degree": 2, "n_ranks": 4, "workload": "ring",
             "mix": "full", "outcome": o, "metrics": {"runtime": 1.0}}
            for o in ("completed", "degraded", "deadlocked", "failed")
        ]
        header, rows = sweep_outcome_rows(records, OUTCOMES)
        assert header[0] == "config" and "survive%" in header
        assert len(rows) == 1
        row = rows[0]
        assert row[0] == "sdr/r2/n4/ring/full" and row[1] == 4
        assert row[header.index("survive%")] == "50"  # completed + degraded
        render_table("t", header, rows)  # renders without error

    def test_render_sweep_report_end_to_end(self):
        result = run_sweep(SMALL, workers=1)
        text = render_sweep_report(result.records, result.summary())
        assert "outcomes by config group" in text
        assert "sdr/r2/n4/ring/full" in text
        assert "stranded frames/envs by mechanism" in text
        assert "hits" in text and "0 worker crashes" in text
        assert "2 memo hits" in text


class TestDetectorAndIntensityAxes:
    def test_unknown_or_invalid_values_rejected(self):
        with pytest.raises(SweepError, match="axis 'detectors': unknown 'psychic'"):
            SweepSpec(detectors=("psychic",))
        with pytest.raises(SweepError, match="must be > 0"):
            SweepSpec(intensities=(0.0,))
        with pytest.raises(SweepError, match="is not a number"):
            SweepSpec(intensities=(True,))
        with pytest.raises(SweepError, match="duplicate"):
            SweepSpec(intensities=(2.0, 2.0))

    def test_infinite_intensity_rejected(self):
        # inf * a clean mix's zero wire odds is nan, which the 1.0 cap turned
        # into certainty: a "clean" config armed every wire fault
        with pytest.raises(SweepError, match="axis 'intensities': inf is not finite"):
            SweepSpec(mixes=("clean",), intensities=(float("inf"),))
        with pytest.raises(SweepError, match="explicit config #1, intensity: inf is not finite"):
            SweepSpec.explicit([
                {"protocol": "native", "n_ranks": 4, "seed": 0, "mix": "clean"},
                {"protocol": "native", "n_ranks": 4, "seed": 1, "mix": "clean", "intensity": float("inf")},
            ])

    def test_default_axes_change_nothing(self):
        # the axes exist, but at their defaults the label and the campaign
        # config are byte-identical to the pre-axis sweep — stored
        # fingerprints stay comparable
        point = SweepSpec(protocols=("sdr",), seeds=(0,)).points()[0]
        assert point.label() == "sdr/r2/n4/ring/full/s0"
        assert point.campaign_config() == CampaignConfig()
        assert DETECTOR_PROFILES["default"] == CampaignConfig().detector

    def test_intensity_scales_only_network_probabilities(self):
        spec = SweepSpec(
            protocols=("sdr",), mixes=("network",), intensities=(2.0,), seeds=(0,),
        )
        cfg = spec.points()[0].campaign_config()
        assert cfg.p_drop_window == pytest.approx(0.5)   # 0.25 * 2
        assert cfg.p_dup_window == 1.0                   # 0.5 * 2, capped
        assert cfg.p_partition == pytest.approx(0.3)
        # crash-side odds stay the mix's own — intensity is a wire knob
        assert cfg.p_crash == 0.0 and cfg.p_churn == 0.0

    def test_detector_profile_reaches_campaign_config(self):
        spec = SweepSpec(protocols=("sdr",), detectors=("eager",), seeds=(0,))
        cfg = spec.points()[0].campaign_config()
        assert cfg.detector == DETECTOR_PROFILES["eager"]
        assert cfg.detector.suspicion_threshold == 1

    def test_labels_grow_segments_only_off_default(self):
        spec = SweepSpec(
            protocols=("mirror",), detectors=("eager",), intensities=(2.0,), seeds=(0,),
        )
        assert spec.points()[0].label() == "mirror/r2/n4/ring/full/eager/x2/s0"

    def test_axes_multiply_the_matrix_and_ride_into_records(self):
        spec = SweepSpec(
            protocols=("sdr",), mixes=("clean",),
            detectors=("default", "eager"), intensities=(1.0, 2.0), seeds=(0,),
        )
        assert spec.n_configs == 4
        result = run_sweep(spec, workers=1)
        assert {(r["detector"], r["intensity"]) for r in result.records} == {
            ("default", 1.0), ("default", 2.0), ("eager", 1.0), ("eager", 2.0),
        }


class TestExplicitMatrix:
    def test_indices_are_list_positions_and_envelopes_are_per_config(self):
        # mg@8 beside ring@4 is legal in an explicit list — an axis-union
        # check would wrongly test mg@4
        spec = SweepSpec.explicit([
            {"protocol": "native", "n_ranks": 4, "seed": 3, "mix": "clean"},
            {"protocol": "sdr", "n_ranks": 8, "seed": 1, "workload": "mg"},
            {"protocol": "mirror", "n_ranks": 4, "seed": 0,
             "detector": "eager", "intensity": 2.0},
        ])
        pts = spec.points()
        assert [p.index for p in pts] == [0, 1, 2]
        assert pts[1].workload == "mg" and pts[1].n_ranks == 8
        assert pts[2].label() == "mirror/r2/n4/ring/full/eager/x2/s0"
        assert spec.n_configs == 3
        assert len(spec.as_dict()["explicit"]) == 3

    @pytest.mark.parametrize(
        "entries, message",
        [
            ([], "empty"),
            ([{"protocol": "sdr"}], "missing required keys"),
            ([{"protocol": "sdr", "n_ranks": 4, "seed": 0, "flavor": "hot"}],
             "unknown keys"),
            ([{"protocol": "tmr", "n_ranks": 4, "seed": 0}], "protocol.*unknown 'tmr'"),
            ([{"protocol": "sdr", "n_ranks": 4, "seed": 0, "workload": "mg"}],
             "needs >= 8 ranks"),
            ([{"protocol": "sdr", "n_ranks": 4, "seed": 0, "detector": "psychic"}],
             "detector.*unknown 'psychic'"),
            ([{"protocol": "sdr", "n_ranks": 4, "seed": 0, "intensity": 0.0}],
             "must be > 0"),
            ([{"protocol": "sdr", "n_ranks": 4, "seed": -1}], "seed: -1 is below the minimum 0"),
            ([{"protocol": "sdr", "n_ranks": 4.0, "seed": 0}], r"n_ranks: 4\.0 is not int"),
        ],
    )
    def test_invalid_entries_rejected_at_build_time(self, entries, message):
        with pytest.raises(SweepError, match=message):
            SweepSpec.explicit(entries)

    def test_error_names_the_first_config_holding_the_bad_value(self):
        good = {"protocol": "sdr", "n_ranks": 4, "seed": 0}
        with pytest.raises(SweepError, match=r"^explicit config #2, mix: unknown 'cosmic'"):
            SweepSpec.explicit([good, good, {**good, "mix": "cosmic"}, {**good, "mix": "cosmic"}])
        with pytest.raises(SweepError, match=r"^explicit config #1, workload: 'mg' cannot run at n_ranks=4"):
            SweepSpec.explicit([{**good, "n_ranks": 8, "workload": "mg"}, {**good, "workload": "mg"},
                                {**good, "workload": "mg", "seed": 1}])

    def test_run_sweep_checks_the_matrix_once(self, monkeypatch):
        import repro.harness.sweep as sweep_mod

        lookups = []
        real = sweep_mod.get_scenario
        monkeypatch.setattr(sweep_mod, "get_scenario", lambda name: lookups.append(name) or real(name))
        spec = SweepSpec.explicit([
            {"protocol": "native", "n_ranks": 4, "seed": 0, "mix": "clean"},
            {"protocol": "sdr", "n_ranks": 4, "seed": 1, "mix": "clean"},
        ])
        result = run_sweep(spec, workers=1)
        assert verify_sample(spec, result.records, 1) == []
        assert spec.n_configs == 2
        assert lookups == ["ring"]  # one rule-table pass, at construction

    def test_explicit_pool_matches_serial_byte_for_byte(self):
        spec = SweepSpec.explicit([
            {"protocol": "native", "n_ranks": 4, "seed": 0, "mix": "clean"},
            {"protocol": "sdr", "n_ranks": 4, "seed": 1},
            {"protocol": "sdr", "n_ranks": 4, "seed": 0,
             "workload": "traffic-poisson", "mix": "clean"},
        ])
        serial = run_sweep(spec, workers=1)
        pooled = run_sweep(spec, workers=2)
        assert serial.fingerprints == pooled.fingerprints
        assert all(serial.fingerprints)
        assert [r["index"] for r in serial.records] == [0, 1, 2]


class TestRunCaseWorkloads:
    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError, match="workload"):
            run_case("sdr", 0, CampaignConfig(workload="fft"))

    def test_allreduce_clean_completes_everywhere(self):
        cfg = CampaignConfig(workload="allreduce", **MIX_PROFILES["clean"])
        for protocol in ("native", "sdr", "mirror"):
            rec = run_case(protocol, 0, cfg)
            assert rec.outcome == "completed", (protocol, rec.error)
            assert rec.invariant_error is None


CLEAN = MIX_PROFILES["clean"]
SEED_FREE = [s.name for s in scenarios() if s.seed_free_binding]


def _first_seed(cfg, protocol, want_blind, respawnable=True):
    """Lowest seed whose sampled mix is empty (or, for want_blind=False, not)."""
    return next(
        seed for seed in range(200)
        if (not sample_faults(seed, cfg, protocol, respawnable)[2]) == want_blind
    )


class TestRunMemo:
    """Soundness of the sweep executor's run memo (docs/sweeps.md)."""

    @pytest.mark.parametrize("workload", SEED_FREE)
    def test_hit_equals_fresh_run_field_by_field(self, workload):
        scenario = get_scenario(workload)
        cache = ShapeCache()
        cells = 0
        for protocol in PROTOCOLS:
            for degree in (2, 3):
                if protocol == "native" and degree == 3:
                    continue  # native ignores the degree axis
                for n_ranks in (4, 8):
                    try:
                        scenario.check(n_ranks, 1 if protocol == "native" else degree)
                    except ScenarioError:
                        continue  # outside the scenario's envelope
                    for detector in ("default", "eager", "lossy-notify"):
                        memo = RunMemo()
                        for seed in (0, 1, 2):
                            point = SweepPoint(
                                index=seed, protocol=protocol, degree=degree,
                                n_ranks=n_ranks, workload=workload, mix="clean",
                                seed=seed, steps=2, detector=detector,
                            )
                            got = _execute_point(point, cache, memo)
                            assert memo.hits == seed, point  # seed 0 simulates, 1 and 2 are served
                            if seed:
                                assert got == _execute_point(point, cache), point
                        cells += 1
        assert cells >= 27

    def test_seed_free_declaration_matches_bind(self):
        assert len(SEED_FREE) == 8
        for scenario in scenarios():
            n = max(4, scenario.min_ranks)
            cfg = CampaignConfig(n_ranks=n, workload=scenario.name, **CLEAN)
            a, b = scenario.bind(cfg, 0), scenario.bind(cfg, 1)
            if scenario.seed_free_binding:
                assert isinstance(scenario, ClosedLoopScenario)
                assert (a.factory, a.kwargs, a.expected) == (b.factory, b.kwargs, b.expected)
                assert a.traffic is None and b.traffic is None
            else:
                assert scenario.name.startswith("traffic-")
                assert a.traffic is not None
        assert sum(not s.seed_free_binding for s in scenarios()) == 3

    def test_sampled_faults_are_never_served_or_stored(self):
        # A crash-mix cell whose memo already holds a seed-blind run: the
        # next seed that draws a crash must still simulate.
        cfg = CampaignConfig(**MIX_PROFILES["crash"])
        memo = RunMemo()
        blind = _first_seed(cfg, "sdr", want_blind=True)
        run_case("sdr", blind, cfg, memo=memo)
        assert len(memo.runs) == 1 and memo.hits == 0
        faulted = _first_seed(cfg, "sdr", want_blind=False)
        stored = dict(memo.runs)
        rec = run_case("sdr", faulted, cfg, memo=memo)
        assert rec.mix and rec == run_case("sdr", faulted, cfg)
        assert memo.hits == 0 and memo.runs == stored
        # A wire-level plan with an empty process schedule, on a cold memo.
        net = CampaignConfig(**MIX_PROFILES["network"])
        seed = _first_seed(net, "native", want_blind=False)
        sched, plan, _mix = sample_faults(seed, net, "native")
        assert plan is not None and not sched.crashes
        memo = RunMemo()
        run_case("native", seed, net, memo=memo)
        assert memo.runs == {} and memo.hits == 0

    def test_traffic_scenarios_are_never_served_or_stored(self):
        cfg = CampaignConfig(workload="traffic-poisson", **CLEAN)
        memo = RunMemo()
        a, b = (run_case("sdr", seed, cfg, memo=memo) for seed in (0, 1))
        assert memo.runs == {} and memo.hits == 0
        assert a.metrics != b.metrics  # the arrival plans really are seeded

    def test_a_run_that_drew_is_not_stored(self, monkeypatch):
        cfg = CampaignConfig(**CLEAN)

        # Noise streams: the same config on a cluster with compute noise.
        rcfg = ReplicationConfig(degree=2, protocol="sdr")
        noisy = JobShape.build(4, rcfg, replace(cluster_for(4, 2), compute_noise=0.05))
        memo = RunMemo()
        recs = [run_case("sdr", seed, cfg, shape=noisy, memo=memo) for seed in (0, 1)]
        assert memo.runs == {} and memo.hits == 0
        assert recs[0].metrics["runtime"] != recs[1].metrics["runtime"]

        # Detector stream: one draw from "membership" before the run.
        class DetectorDraws(Job):
            def run(self, *args, **kwargs):
                self.rng.stream("membership").random()
                return super().run(*args, **kwargs)

        monkeypatch.setattr(campaign_mod, "Job", DetectorDraws)
        memo = RunMemo()
        for seed in (0, 1):
            run_case("sdr", seed, cfg, memo=memo)
        assert memo.runs == {} and memo.hits == 0

    def test_a_run_that_ended_badly_is_not_stored(self, monkeypatch):
        cfg = CampaignConfig(**CLEAN)

        class LeakyAudit(Job):
            def audit(self):
                super().audit()
                raise AssertionError("envelope arena leak (injected)")

        class Raises(Job):
            def run(self, *args, **kwargs):
                raise RuntimeError("injected")

        for broken, field_name in ((LeakyAudit, "invariant_error"), (Raises, "error")):
            monkeypatch.setattr(campaign_mod, "Job", broken)
            memo = RunMemo()
            for seed in (0, 1):
                rec = run_case("sdr", seed, cfg, memo=memo)
                assert "injected" in getattr(rec, field_name)
            assert memo.runs == {} and memo.hits == 0

    def test_mutation_an_app_that_draws_from_the_job_rng_always_simulates(self, monkeypatch):
        jobs = []

        class Recorded(Job):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                jobs.append(self)

        def drawing_app(mpi, steps, state=None):
            if mpi.rank == 0 and state is None:
                jobs[-1].rng.stream("app.mutant").random()  # one draw, result unused
            return campaign_app(mpi, steps, state=state)

        monkeypatch.setattr(campaign_mod, "Job", Recorded)
        monkeypatch.setitem(
            _REGISTRY, "mutant",
            ClosedLoopScenario("mutant", "ring that reads the job rng", drawing_app,
                               expected_results, supports_respawn=True),
        )
        cfg = CampaignConfig(workload="mutant", **CLEAN)
        memo = RunMemo()
        for seed in (0, 1):
            rec = run_case("native", seed, cfg, memo=memo)
            assert rec.outcome == "completed"
            assert not jobs[-1].rng.untouched()
        assert len(jobs) == 2 and memo.runs == {} and memo.hits == 0
        # The unmutated ring on the same memo: stored, then served.
        ring = CampaignConfig(**CLEAN)
        for seed in (0, 1):
            run_case("native", seed, ring, memo=memo)
        assert len(jobs) == 3 and memo.hits == 1
