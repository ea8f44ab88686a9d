"""Harness: runner wiring, metrics, report rendering, experiment entries."""

import numpy as np
import pytest

from repro.core.config import ReplicationConfig
from repro.harness.experiments import SCALES, Scale, app_overhead, fig7, nas_overhead
from repro.harness.metrics import overhead_pct
from repro.harness.report import (
    PAPER_TABLE1,
    PAPER_TABLE2,
    overhead_row,
    parallel_rows,
    render_series,
    render_table,
)
from repro.harness.runner import Job, cluster_for

TINY = Scale("tiny", n_ranks=4, nas_class="S", nas_iter_cap=2,
             hpccg_iters=3, cm1_steps=2, netpipe_iters=3, noise=0.05)


class TestRunner:
    def test_native_job_has_n_processes(self):
        job = Job(4)
        assert len(job.processes) == 0  # before launch
        job.launch(lambda mpi: iter(()))
        assert len(job.processes) == 4

    def test_replicated_job_has_rn_processes(self):
        cfg = ReplicationConfig(degree=2, protocol="sdr")
        job = Job(4, cfg=cfg, cluster=cluster_for(4, 2))
        job.launch(lambda mpi: iter(()))
        assert len(job.processes) == 8

    @pytest.mark.parametrize("n_ranks", [0, -3])
    def test_empty_job_refused_when_built(self, n_ranks):
        # it used to run to a result with 0 events and no app results
        with pytest.raises(ValueError, match="n_ranks must be >= 1"):
            Job(n_ranks)

    def test_zero_cores_per_node_refused(self):
        # cluster_for divided by it: ZeroDivisionError, not a refusal
        with pytest.raises(ValueError, match="cores_per_node must be >= 1"):
            cluster_for(16, cores_per_node=0)

    def test_result_runtime_is_latest_finish(self):
        def app(mpi):
            yield from mpi.compute((mpi.rank + 1) * 1e-3)
            return mpi.rank

        res = Job(3, cluster=cluster_for(3)).launch(app).run()
        assert res.runtime == pytest.approx(3e-3)
        assert res.app_results == {0: 0, 1: 1, 2: 2}

    def test_app_exception_propagates(self):
        def app(mpi):
            yield from mpi.compute(1e-6)
            raise ValueError("app bug")

        job = Job(2, cluster=cluster_for(2)).launch(app)
        with pytest.raises(Exception) as err:
            job.run()
        assert "app bug" in str(err.value)

    def test_seed_changes_noise_realization(self):
        def app(mpi):
            yield from mpi.compute(1e-3)
            return mpi.wtime()

        cluster = cluster_for(2, 1, compute_noise=0.2)
        a = Job(2, cluster=cluster, seed=1).launch(app).run().runtime
        b = Job(2, cluster=cluster, seed=2).launch(app).run().runtime
        c = Job(2, cluster=cluster, seed=1).launch(app).run().runtime
        assert a != b
        assert a == c  # same seed reproduces exactly

    def test_identical_jobs_bit_identical(self):
        from repro.apps.nas.cg import cg_rank

        def run_once():
            cfg = ReplicationConfig(degree=2, protocol="sdr")
            job = Job(4, cfg=cfg, cluster=cluster_for(4, 2))
            res = job.launch(cg_rank, klass="S", iters=2).run()
            return res.runtime, res.events

        assert run_once() == run_once()

    def test_stat_total_sums_over_processes(self):
        def app(mpi):
            if mpi.rank == 0:
                yield from mpi.send(np.ones(1), dest=1, tag=1)
            else:
                yield from mpi.recv(source=0, tag=1)

        cfg = ReplicationConfig(degree=2, protocol="sdr")
        res = Job(2, cfg=cfg, cluster=cluster_for(2, 2)).launch(app).run()
        assert res.stat_total("app_sends") == 2  # one logical send per world

    @pytest.mark.parametrize("order", ["proc-order", "reverse"])
    def test_finish_detection_is_linear_in_procs(self, order):
        """Every app finish asks whether all procs are done.  A scan of
        ``processes`` from proc 0 answers that in O(procs) steps when procs
        finish in proc order — O(procs²) per job; the live count answers
        in O(1), leaving teardown's few linear passes."""

        def staggered(mpi):
            k = mpi.rank if order == "proc-order" else mpi.size - 1 - mpi.rank
            yield from mpi.compute((k + 1) * 1e-6)
            return k

        n = 96
        job = Job(n, cluster=cluster_for(n))
        job.processes = counted = _CountingDict()
        res = job.launch(staggered).run()
        by_finish = sorted(res.finish_times, key=res.finish_times.get)
        assert by_finish == (list(range(n)) if order == "proc-order" else list(range(n))[::-1])
        assert counted.steps <= 4 * n

    def test_live_count_matches_a_scan_through_crash_and_respawn(self, monkeypatch):
        """At every all-done check the live count equals the scan it
        replaced, through a crash (the slot stops counting) and a respawn
        into that slot (it counts again until the new process finishes)."""
        from repro.core.recovery import RecoveryManager
        from tests.test_core_recovery import _job as recovery_job

        checks = []
        flip = Job._maybe_all_done

        def checked(job):
            # the scan the live count replaced: slots whose current process
            # has neither finished nor crashed
            scan = sum(not p.crashed and proc not in job.finish_times for proc, p in job.processes.items())
            checks.append((job._unfinished, scan))
            flip(job)

        monkeypatch.setattr(Job, "_maybe_all_done", checked)
        job = recovery_job()
        manager = RecoveryManager(job)
        job.crash(1, 1, at=60e-6)
        job.sim.call_at(100e-6, lambda: manager.request_respawn(1))
        job.run()
        assert manager.respawns_done == [job.rmap.phys(1, 1)]
        assert len(checks) > job.rmap.n_procs
        assert all(count == scan for count, scan in checks)
        assert checks[-1] == (0, 0) and job._app_all_done


class _CountingDict(dict):
    """``Job.processes`` stand-in counting every entry an iteration visits."""

    steps = 0

    def __iter__(self):
        for key in super().__iter__():
            self.steps += 1
            yield key

    def items(self):
        for item in super().items():
            self.steps += 1
            yield item

    def values(self):
        for value in super().values():
            self.steps += 1
            yield value


class TestMetrics:
    def test_overhead_pct(self):
        assert overhead_pct(100.0, 105.0) == pytest.approx(5.0)

    def test_overhead_requires_positive_native(self):
        with pytest.raises(ValueError):
            overhead_pct(0.0, 1.0)


class TestReport:
    def test_render_table_alignment(self):
        out = render_table("T", ["a", "bb"], [[1, 22], [333, 4]])
        lines = out.splitlines()
        assert lines[0] == "T"
        assert len(lines) == 5  # title, header, rule, two rows
        assert "333" in lines[4]

    def test_overhead_row_with_paper_reference(self):
        row = overhead_row("CG", 100.0, 104.92, PAPER_TABLE1["CG"])
        assert row[0] == "CG"
        assert row[3] == "4.92"
        assert row[-1] == "4.92"

    def test_render_series(self):
        out = render_series("S", "x", {"a": {1: 0.5, 2: 1.5}, "b": {1: 2.0}})
        assert "nan" in out  # missing point rendered as nan
        assert "0.5" in out

    def test_paper_constants_match_the_paper(self):
        assert PAPER_TABLE1["CG"] == (210.37, 220.71, 4.92)
        assert PAPER_TABLE2["HPCCG"][2] == 0.002

    def test_parallel_rows_empty_without_metadata(self):
        header, rows = parallel_rows([("sdr-16", {"host_seconds": 1.0})])
        assert rows == []  # serial-only sets get no table at all
        assert header[0] == "run"

    def test_parallel_rows_speedup_and_fallback(self):
        labelled = [
            ("sdr-16", {"host_seconds": 2.0}),
            (
                "sdr-16@w4",
                {
                    "host_seconds": 1.0,
                    "parallel": {"workers": 4, "shards": 2, "windows": 19,
                                 "fallback": []},
                },
            ),
            (
                "mirror-16@w4",
                {
                    "host_seconds": 1.0,
                    "parallel": {"workers": 4, "shards": 1, "windows": 23,
                                 "fallback": ["drain_race: tied contention"]},
                },
            ),
        ]
        header, rows = parallel_rows(labelled)
        assert header == ["run", "workers", "shards", "windows", "speedup"]
        assert rows[0] == ["sdr-16@w4", 4, 2, 19, "2.00x"]
        # Fallback runs surface the reason where the window count would go,
        # and get no speedup cell without a matching serial wall-time.
        assert rows[1][3] == "drain_race: tied contention"
        assert rows[1][4] == "-"
        render_table("sharded execution", header, rows)  # renders cleanly


class TestExperiments:
    def test_scales_registry(self):
        assert set(SCALES) >= {"quick", "small", "paper"}
        assert SCALES["paper"].n_ranks == 256
        assert SCALES["paper"].nas_class == "D"
        assert SCALES["paper"].nas_iter_cap is None

    def test_nas_overhead_entry(self):
        r = nas_overhead("MG", TINY)
        assert r["native_s"] > 0
        assert -2.0 < r["overhead_pct"] < 25.0
        assert r["acks"] > 0

    def test_app_overhead_entry(self):
        r = app_overhead("HPCCG", TINY)
        assert r["native_s"] > 0
        assert r["acks"] > 0

    def test_fig7_sweep_entry(self):
        out = fig7(sizes=(1, 1024), iters=3)
        assert set(out) == {"native", "sdr"}
        assert out["sdr"][1]["latency_s"] > out["native"][1]["latency_s"]
