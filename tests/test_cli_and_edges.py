"""CLI entry points and miscellaneous edge cases."""

import numpy as np
import pytest

from repro.harness.cli import main
from repro.harness.runner import Job, cluster_for
from tests.conftest import run_app


class TestCli:
    def test_fig7_subcommand(self, capsys):
        assert main(["fig7", "--sizes", "1", "1024", "--iters", "2"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 7a" in out and "Fig. 7b" in out
        assert "1.67" in out  # native 1-byte anchor

    def test_determinism_positive(self, capsys):
        assert main(["determinism", "--app", "cg", "--ranks", "4", "--replays", "2"]) == 0
        assert "send-deterministic" in capsys.readouterr().out

    def test_determinism_negative_control(self, capsys):
        assert main(["determinism", "--app", "master_worker"]) == 0
        assert "NOT send-deterministic" in capsys.readouterr().out

    def test_determinism_negative_control_fails_when_undetected(self, capsys):
        # One replay is the unjittered reference alone: nothing would be
        # perturbed, so the check refuses the vacuous run.
        assert main(["determinism", "--app", "master_worker", "--replays", "1"]) == 2
        err = capsys.readouterr().err
        assert "replays must be >= 2" in err

    @pytest.mark.parametrize("replays", [0, 1])
    def test_determinism_refuses_vacuous_replays(self, capsys, replays):
        from repro.apps.hpccg import hpccg_rank
        from repro.trace.determinism import check_send_determinism

        with pytest.raises(ValueError, match="replays must be >= 2"):
            check_send_determinism(hpccg_rank, 4, replays=replays)
        assert main(["determinism", "--app", "hpccg", "--replays", str(replays)]) == 2
        captured = capsys.readouterr()
        assert "replays must be >= 2" in captured.err and "send-deterministic" not in captured.out

    @pytest.mark.parametrize("ranks", [0, -1])
    def test_determinism_refuses_empty_jobs(self, capsys, ranks):
        # An empty job sends nothing, so every replay "agrees" vacuously.
        from repro.apps.hpccg import hpccg_rank
        from repro.trace.determinism import check_send_determinism

        with pytest.raises(ValueError, match="n_ranks must be >= 1"):
            check_send_determinism(hpccg_rank, ranks, replays=2)
        assert main(["determinism", "--ranks", str(ranks), "--replays", "2"]) == 2
        captured = capsys.readouterr()
        assert "n_ranks must be >= 1" in captured.err and "send-deterministic" not in captured.out

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"iters": 0}, "iters must be >= 1"),
            ({"iters": -3}, "iters must be >= 1"),
            ({"sizes": (-8,)}, "message sizes must be >= 0"),
            ({"sizes": (1, -8), "iters": 2}, "message sizes must be >= 0"),
        ],
    )
    def test_fig7_refuses_bad_sizes(self, capsys, kwargs, message):
        from repro.apps.netpipe import netpipe_sweep

        with pytest.raises(ValueError, match=message):
            netpipe_sweep("native", **kwargs)
        argv = ["fig7", "--iters", str(kwargs.get("iters", 10))]
        if "sizes" in kwargs:
            argv += ["--sizes", *map(str, kwargs["sizes"])]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert len(captured.err.strip().splitlines()) == 1 and message in captured.err
        assert "Fig. 7a" not in captured.out

    def test_fig7_zero_bytes_is_a_valid_size(self, capsys):
        assert main(["fig7", "--sizes", "0", "--iters", "2"]) == 0
        out = capsys.readouterr().out
        assert "1.67" in out and "2.38" in out  # the 0-byte row rides the 1-byte costs

    @pytest.mark.parametrize("cmd", ["table1", "table2"])
    def test_unknown_scale_is_refused(self, capsys, monkeypatch, cmd):
        from repro.harness.experiments import current_scale

        monkeypatch.setenv("REPRO_SCALE", "Paper")
        with pytest.raises(ValueError, match="quick"):
            current_scale()
        assert main([cmd]) == 2
        assert "known scales: paper, quick, small" in capsys.readouterr().err

    def test_determinism_unknown_app(self):
        assert main(["determinism", "--app", "nonexistent"]) == 2

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_campaign_subcommand(self, capsys, tmp_path):
        import json

        artifact = tmp_path / "campaign.json"
        assert main([
            "campaign", "--protocols", "native", "sdr", "--seeds", "2",
            "--json", str(artifact),
        ]) == 0
        out = capsys.readouterr().out
        assert "Fault campaign" in out
        assert "deadlocked" in out  # taxonomy columns rendered
        records = json.loads(artifact.read_text())
        assert len(records) == 4  # 2 seeds x 2 protocols
        assert all(r["invariant_error"] is None for r in records)
        # The artifact is written atomically: no temp residue next to it.
        assert [p.name for p in tmp_path.iterdir()] == ["campaign.json"]

    def test_campaign_rejects_zero_seeds(self, capsys):
        assert main(["campaign", "--seeds", "0"]) == 2
        assert "--seeds must be >= 1" in capsys.readouterr().err

    def test_campaign_rejects_negative_seed_base(self, capsys):
        assert main(["campaign", "--seeds", "2", "--seed-base", "-1"]) == 2
        assert "axis 'seeds': -1 is below the minimum 0" in capsys.readouterr().err

    def test_campaign_invariant_violation_exits_1(self, capsys, monkeypatch):
        import repro.harness.sweep as sweep_mod
        from repro.harness.campaign import RunRecord

        def bad_run_case(protocol, seed, cfg=None, shape=None, memo=None):
            return RunRecord(
                protocol=protocol, seed=seed, outcome="completed",
                mix={}, metrics={}, stranded_by_site={},
                invariant_error="arena imbalance", fingerprint="{}",
            )

        monkeypatch.setattr(sweep_mod, "run_case", bad_run_case)
        assert main(["campaign", "--protocols", "sdr", "--seeds", "1"]) == 1
        assert "INVARIANT VIOLATION: config #0 sdr/r2/n4/ring/full/s0" in capsys.readouterr().err


class TestSweepCli:
    ARGS = ["sweep", "--protocols", "native", "sdr", "--ranks", "4",
            "--mixes", "clean", "--seeds", "2"]

    def test_happy_path_with_store_and_report(self, capsys, tmp_path):
        base = str(tmp_path / "run")
        assert main(self.ARGS + ["--workers", "2", "--verify", "2",
                                 "--store", base]) == 0
        out = capsys.readouterr()
        assert "outcomes by config group" in out.out
        assert "verified 2 sampled config(s)" in out.err
        assert (tmp_path / "run.jsonl").exists()
        assert (tmp_path / "run.sqlite").exists()
        # Report-only mode re-renders the same tables from the store.
        assert main(["sweep", "--report", "--store", base]) == 0
        assert "outcomes by config group" in capsys.readouterr().out

    def test_invalid_axis_value_exits_2(self, capsys):
        assert main(["sweep", "--mixes", "cosmic"]) == 2
        assert "invalid sweep matrix" in capsys.readouterr().err
        assert main(["sweep", "--ranks", "1"]) == 2
        assert main(["sweep", "--degrees", "1"]) == 2  # replicated present

    def test_infinite_intensity_exits_2(self, capsys):
        args = ["sweep", "--protocols", "native", "--mixes", "clean", "--intensities", "inf", "--seeds", "1"]
        assert main(args) == 2
        assert "axis 'intensities': inf is not finite" in capsys.readouterr().err

    def test_verify_checks_and_enumerates_the_matrix_once(self, capsys, monkeypatch):
        import repro.harness.sweep as sweep_mod

        lookups, built = [], []
        real_lookup, real_point = sweep_mod.get_scenario, sweep_mod.SweepPoint
        monkeypatch.setattr(sweep_mod, "get_scenario", lambda name: lookups.append(name) or real_lookup(name))
        monkeypatch.setattr(sweep_mod, "SweepPoint", lambda *a, **kw: built.append(a or kw) or real_point(*a, **kw))
        args = ["sweep", "--protocols", "native", "--mixes", "clean", "--seeds", "1", "--verify", "1"]
        assert main(args) == 0
        assert "verified 1 sampled config(s)" in capsys.readouterr().err
        assert lookups == ["ring"] and len(built) == 1

    def test_empty_matrix_exits_2(self, capsys):
        assert main(["sweep", "--seeds", "0"]) == 2
        assert "--seeds must be >= 1" in capsys.readouterr().err

    def test_negative_verify_exits_2(self, capsys):
        assert main(["sweep", "--protocols", "native", "--seeds", "1", "--verify", "-1"]) == 2
        err = capsys.readouterr().err
        assert "--verify must be >= 0, got -1" in err
        assert "verified" not in err

    def test_store_collision_exits_2(self, capsys, tmp_path):
        base = str(tmp_path / "run")
        assert main(self.ARGS + ["--store", base]) == 0
        capsys.readouterr()
        assert main(self.ARGS + ["--store", base]) == 2
        assert "already exist" in capsys.readouterr().err
        assert main(self.ARGS + ["--store", base, "--overwrite"]) == 0

    def test_report_without_store_exits_2(self, capsys):
        assert main(["sweep", "--report"]) == 2
        assert "--report requires --store" in capsys.readouterr().err

    def test_report_on_missing_store_exits_2(self, capsys, tmp_path):
        assert main(["sweep", "--report", "--store", str(tmp_path / "ghost")]) == 2
        assert "no finalized store" in capsys.readouterr().err

    def test_invariant_violation_exits_1(self, capsys, monkeypatch):
        import repro.harness.sweep as sweep_mod
        from repro.harness.campaign import RunRecord

        def bad_run_case(protocol, seed, cfg=None, shape=None, memo=None):
            return RunRecord(
                protocol=protocol, seed=seed, outcome="completed",
                mix={}, metrics={}, stranded_by_site={},
                invariant_error="arena imbalance", fingerprint="{}",
            )

        monkeypatch.setattr(sweep_mod, "run_case", bad_run_case)
        assert main(self.ARGS) == 1
        assert "INVARIANT VIOLATION" in capsys.readouterr().err

    def test_worker_crash_exits_1(self, capsys, monkeypatch, tmp_path):
        import os
        import signal

        import repro.harness.sweep as sweep_mod
        from repro.harness.store import SweepStore

        real = sweep_mod._execute_point

        def killed_at_1(point, *args):
            if point.index == 1:  # only ever reached in a forked worker
                os.kill(os.getpid(), signal.SIGKILL)
            return real(point, *args)

        monkeypatch.setattr(sweep_mod, "_execute_point", killed_at_1)
        base = str(tmp_path / "run")
        assert main(self.ARGS + ["--workers", "2", "--store", base]) == 1
        out = capsys.readouterr()
        assert "lost to worker crashes" in out.err
        assert "1 worker crashes" in out.out
        with SweepStore.open(base) as store:
            (lost,) = store.records("fingerprint = ''")
        assert lost["index"] == 1 and "exit code -9" in lost["error"]


class TestJobShapeGuards:
    def test_mismatched_shape_rejected(self):
        from repro.harness.runner import JobShape

        shape = JobShape.build(4)
        with pytest.raises(ValueError, match="shape"):
            Job(8, shape=shape)


class TestComputeNoise:
    def test_noise_stretches_compute(self):
        def app(mpi):
            yield from mpi.compute(1e-3)
            return mpi.wtime()

        quiet = Job(1, cluster=cluster_for(1)).launch(app).run().runtime
        noisy = Job(1, cluster=cluster_for(1, compute_noise=0.5), seed=3).launch(app).run().runtime
        assert quiet == pytest.approx(1e-3)
        assert noisy != quiet

    def test_replica_zero_shares_native_noise_stream(self):
        """rep 0's noise equals the native run's — fair A/B comparisons."""
        from repro.core.config import ReplicationConfig

        def app(mpi):
            yield from mpi.compute(1e-3)
            return mpi.wtime()

        cluster_n = cluster_for(2, 1, compute_noise=0.3)
        native = Job(2, cluster=cluster_n, seed=7).launch(app).run()
        cfg = ReplicationConfig(degree=2, protocol="sdr")
        cluster_r = cluster_for(2, 2, compute_noise=0.3)
        repl = Job(2, cfg=cfg, cluster=cluster_r, seed=7).launch(app).run()
        assert repl.app_results[0] == native.app_results[0]  # same draw
        assert repl.app_results[2] != native.app_results[0]  # rep 1 differs

    def test_negative_compute_rejected(self):
        def app(mpi):
            yield from mpi.compute(-1.0)

        with pytest.raises(Exception):
            run_app(app, 1)


class TestMiscEdges:
    def test_single_rank_collectives(self):
        def app(mpi):
            a = yield from mpi.allreduce(5.0, op="sum")
            b = yield from mpi.bcast(7.0, root=0)
            g = yield from mpi.allgather(9)
            yield from mpi.barrier()
            return a, b, g

        assert run_app(app, 1).app_results[0] == (5.0, 7.0, [9])

    def test_send_to_invalid_rank_rejected(self):
        def app(mpi):
            yield from mpi.send(np.ones(1), dest=99, tag=0)

        with pytest.raises(Exception):
            run_app(app, 2)

    def test_recv_from_invalid_rank_rejected(self):
        def app(mpi):
            yield from mpi.recv(source=99, tag=0)

        with pytest.raises(Exception):
            run_app(app, 2)

    def test_fread_before_any_write_is_empty(self):
        def app(mpi):
            log = yield from mpi.fread("nothing.dat")
            return log

        assert run_app(app, 1).app_results[0] == []

    def test_zero_byte_payload(self):
        def app(mpi):
            if mpi.rank == 0:
                yield from mpi.send(b"", dest=1, tag=1)
            else:
                data, st = yield from mpi.recv(source=0, tag=1)
                return st.nbytes

        assert run_app(app, 2).app_results[1] == 0

    def test_wtime_monotone(self):
        def app(mpi):
            t0 = mpi.wtime()
            yield from mpi.compute(1e-6)
            t1 = mpi.wtime()
            yield from mpi.barrier()
            t2 = mpi.wtime()
            return t0 <= t1 <= t2

        assert all(run_app(app, 3).app_results.values())

    def test_large_tag_values(self):
        def app(mpi):
            if mpi.rank == 0:
                yield from mpi.send(np.ones(1), dest=1, tag=2**30)
            else:
                _, st = yield from mpi.recv(source=0, tag=2**30)
                return st.tag

        assert run_app(app, 2).app_results[1] == 2**30

    def test_stats_surface_complete(self):
        def app(mpi):
            if mpi.rank == 0:
                yield from mpi.send(np.ones(1), dest=1, tag=1)
            else:
                yield from mpi.recv(source=0, tag=1)

        res = run_app(app, 2, protocol="sdr")
        sample = res.stats[0]
        for key in ("app_sends", "app_recvs", "unexpected_count", "acks_sent",
                    "duplicates_dropped", "retained", "resends"):
            assert key in sample
