"""Tests for simulation support pieces: stats, accounting, config, report,
and the harness CLI."""

import json

import pytest

from repro.core.accounting import Category, CycleCounters
from repro.harness.__main__ import main as harness_main
from repro.harness.report import render_stacked_bars, render_table
from repro.harness.runner import ExperimentContext
from repro.harness.tracecache import cache_path
from repro.sim import ExecutionMode, MachineConfig
from repro.sim.stats import SimulationStats
from repro.tpcc import BENCHMARKS, TPCCScale


class TestCycleCounters:
    def test_add_and_total(self):
        c = CycleCounters()
        c.add(Category.BUSY, 10)
        c.add(Category.MISS, 5)
        assert c.total() == 15
        assert c.get(Category.BUSY) == 10

    def test_add_zero_is_noop(self):
        c = CycleCounters()
        c.add(Category.BUSY, 0)
        assert c.total() == 0

    def test_merge(self):
        a, b = CycleCounters(), CycleCounters()
        a.add(Category.BUSY, 10)
        b.add(Category.BUSY, 5)
        b.add(Category.SYNC, 3)
        a.merge(b)
        assert a.get(Category.BUSY) == 15
        assert a.get(Category.SYNC) == 3

    def test_merge_as_failed_collapses_categories(self):
        a, b = CycleCounters(), CycleCounters()
        b.add(Category.BUSY, 10)
        b.add(Category.MISS, 7)
        a.merge_as_failed(b)
        assert a.get(Category.FAILED) == 17
        assert a.get(Category.BUSY) == 0

    def test_copy_is_independent(self):
        a = CycleCounters()
        a.add(Category.BUSY, 1)
        b = a.copy()
        b.add(Category.BUSY, 1)
        assert a.get(Category.BUSY) == 1

    def test_sum_of(self):
        xs = []
        for i in range(3):
            c = CycleCounters()
            c.add(Category.IDLE, i)
            xs.append(c)
        assert CycleCounters.sum_of(xs).get(Category.IDLE) == 3


class TestSimulationStats:
    def make(self):
        stats = SimulationStats(n_cpus=2, total_cycles=100.0)
        c0, c1 = CycleCounters(), CycleCounters()
        c0.add(Category.BUSY, 60)
        c1.add(Category.BUSY, 20)
        c1.add(Category.FAILED, 30)
        stats.per_cpu = [c0, c1]
        return stats

    def test_finalize_idle_fills_gap(self):
        stats = self.make()
        stats.finalize_idle()
        assert stats.per_cpu[0].get(Category.IDLE) == 40
        assert stats.per_cpu[1].get(Category.IDLE) == 50

    def test_fractions_sum_to_one_after_finalize(self):
        stats = self.make()
        stats.finalize_idle()
        assert sum(stats.breakdown_fractions().values()) == pytest.approx(
            1.0
        )

    def test_speedup_over(self):
        fast = SimulationStats(total_cycles=50.0)
        slow = SimulationStats(total_cycles=100.0)
        assert fast.speedup_over(slow) == 2.0

    def test_summary_contains_key_fields(self):
        stats = self.make()
        stats.finalize_idle()
        text = stats.summary("label")
        assert "label" in text and "cycles=" in text


class TestMachineConfigDerivation:
    def test_with_tls_overrides_only_named(self):
        cfg = MachineConfig().with_tls(max_subthreads=2)
        assert cfg.tls.max_subthreads == 2
        assert cfg.tls.subthread_spacing == (
            MachineConfig().tls.subthread_spacing
        )

    def test_geometries(self):
        cfg = MachineConfig()
        assert cfg.l1_geometry().size_bytes == 32 * 1024
        assert cfg.l2_geometry().size_bytes == 2 * 1024 * 1024

    def test_all_modes_enumerated(self):
        assert len(ExecutionMode.ALL) == 5


class TestReport:
    def test_render_table_alignment(self):
        text = render_table(
            ["name", "value"],
            [["a", 1.5], ["long-name", 22.0]],
            title="T",
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "long-name" in text and "22.00" in text

    def test_render_table_empty_rows(self):
        text = render_table(["only", "headers"], [])
        assert "only" in text

    def test_render_stacked_bars(self):
        text = render_stacked_bars(
            ["bar1"],
            [{"busy": 0.5, "idle": 0.5}],
            ["idle", "busy"],
            scale=10,
        )
        assert "bar1" in text
        assert "1.00" in text  # total annotation
        assert "legend" in text


class TestHarnessCLI:
    def test_table1_runs(self, capsys):
        assert harness_main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Issue Width" in out

    def test_figure4_runs(self, capsys):
        assert harness_main(["figure4"]) == 0
        out = capsys.readouterr().out
        assert "start tables" in out

    def test_tiny_scale_flag(self, capsys, trace_cache_dir):
        assert harness_main(["table2", "--tiny", "--transactions", "1"]) == 0
        out = capsys.readouterr().out
        assert "NEW ORDER" in out
        # The run used the default trace cache, which the session
        # fixture points away from the user's.
        ctx = ExperimentContext(n_transactions=1, scale=TPCCScale.tiny())
        traces = {
            cache_path(ctx.spec(benchmark, tls_mode=tls), trace_cache_dir)
            for benchmark in BENCHMARKS for tls in (True, False)
        }
        assert len(traces) == 14
        assert traces <= set(trace_cache_dir.iterdir())

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            harness_main(["bogus"])

    @pytest.mark.parametrize("argv, flag", [
        (["table2", "--transactions", "0"], "--transactions"),
        (["table2", "--transactions", "-2"], "--transactions"),
        (["table1", "--jobs", "-3"], "--jobs"),
        (["figure5", "--sample-rate", "0"], "--sample-rate"),
        (["huge", "--sample-rate", "-0.5"], "--sample-rate"),
        (["all", "--sample-rate", "0.3", "--sample-strata", "0"],
         "--sample-strata"),
        (["all", "--sample-rate", "0.3", "--sample-warmup", "-2"],
         "--sample-warmup"),
        (["huge", "--sample-rate", "0.1", "--sample-warmup", "-1"],
         "--sample-warmup"),
        # A --sample-* knob without --sample-rate would be ignored.
        (["table1", "--sample-warmup", "8", "--sample-strata", "5"],
         "--sample-strata"),
        (["figure5", "--sample-warmup", "8"], "--sample-warmup"),
        (["huge", "--sample-seed", "1"], "--sample-seed"),
        (["table1", "--tiny", "--scale", "huge"], "--tiny"),
        (["table1", "--trace-cache", "unused-cache-dir", "--no-trace-cache"],
         "--trace-cache"),
    ], ids=["transactions-0", "transactions-neg", "jobs-neg",
            "sample-rate-0", "sample-rate-neg", "sample-strata-0",
            "sample-warmup-neg", "huge-sample-warmup-unbounded",
            "sample-strata-without-rate", "sample-warmup-without-rate",
            "sample-seed-without-rate", "tiny-with-scale",
            "trace-cache-with-no-trace-cache"])
    def test_out_of_range_flag_rejected_before_running(self, capsys,
                                                       argv, flag):
        with pytest.raises(SystemExit) as exc:
            harness_main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert flag in captured.err
        assert "###" not in captured.out

    @pytest.mark.parametrize("experiment, n_jobs, stored", [
        ("figure2", 10, 10),
        # Figure 4's inline-trace jobs are simulated but never stored.
        ("figure4", 2, 0),
    ], ids=["figure2", "figure4"])
    def test_simulating_experiments_honor_run_flags(
        self, tmp_path, capsys, experiment, n_jobs, stored
    ):
        log = tmp_path / "run.jsonl"
        assert harness_main([
            experiment, "--tiny", "--transactions", "1",
            "--no-trace-cache", "--no-compile-traces",
            "--trace-out", str(log),
            "--result-store", str(tmp_path / "store"),
            "--out", str(tmp_path / "out"),
        ]) == 0
        out = capsys.readouterr().out
        records = [json.loads(line) for line in log.read_text().splitlines()]
        spans = [
            r for r in records
            if r["type"] == "span" and r["name"] == "harness.job"
        ]
        counters = [
            r["values"] for r in records
            if r["type"] == "counter" and r["name"] == "sim.stats"
        ]
        assert len(spans) == n_jobs
        assert len(counters) == n_jobs
        # --no-compile-traces reached every job: the interpreted path ran.
        assert all(c["compile.fastpath_loads"] == 0 for c in counters)
        assert f"[result store: 0 hits, {n_jobs} simulated]" in out
        store_entries = list((tmp_path / "store").rglob("*.json"))
        assert len(store_entries) == stored


class TestOverlapLoads:
    def _strided_workload(self):
        from repro.trace.events import (
            Rec,
            SerialSegment,
            TransactionTrace,
            WorkloadTrace,
        )

        records = []
        for i in range(32):
            records.append((Rec.LOAD, 0x1000_0000 + 64 * i, 4, 0x400000))
            records.append((Rec.COMPUTE, 20))
        txn = TransactionTrace(
            name="t", segments=[SerialSegment(records=records)]
        )
        return WorkloadTrace(name="w", transactions=[txn])

    def test_overlap_reduces_miss_stall(self):
        from dataclasses import replace

        from repro.sim import Machine, MachineConfig

        wl = self._strided_workload()
        blocking = Machine(MachineConfig()).run(wl)
        overlapped = Machine(
            replace(MachineConfig(), overlap_loads=True)
        ).run(wl)
        assert overlapped.total_cycles < blocking.total_cycles
        assert overlapped.epochs_committed == blocking.epochs_committed

    def test_mshr_limit_caps_overlap(self):
        from dataclasses import replace

        from repro.sim import Machine, MachineConfig

        wl = self._strided_workload()
        wide = Machine(
            replace(MachineConfig(), overlap_loads=True, mshr_entries=8)
        ).run(wl)
        narrow = Machine(
            replace(MachineConfig(), overlap_loads=True, mshr_entries=1)
        ).run(wl)
        assert narrow.total_cycles >= wide.total_cycles

    def test_overlap_mode_runs_tpcc_cleanly(self):
        from dataclasses import replace

        from repro.sim import ExecutionMode, Machine, MachineConfig
        from repro.tpcc import TPCCScale, generate_workload

        gw = generate_workload(
            "new_order", n_transactions=1, scale=TPCCScale.tiny()
        )
        cfg = replace(
            MachineConfig.for_mode(ExecutionMode.BASELINE),
            overlap_loads=True,
        )
        stats = Machine(cfg).run(gw.trace)
        assert stats.epochs_committed == stats.epochs_total

    def test_ablation_driver(self):
        from repro.harness import ExperimentContext, run_overlap_loads_ablation
        from repro.tpcc import TPCCScale

        ctx = ExperimentContext(n_transactions=2, scale=TPCCScale.tiny())
        result = run_overlap_loads_ablation(ctx, benchmark="stock_level")
        blocking, overlapped = result.points
        assert overlapped.extra["miss_fraction"] <= (
            blocking.extra["miss_fraction"] + 0.02
        )


class TestExport:
    def test_result_to_dict_handles_nesting(self):
        from repro.harness import run_figure4
        from repro.harness.export import result_to_dict

        doc = result_to_dict(run_figure4(work=300))
        assert isinstance(doc, dict)
        assert doc["with_tables_cycles"] <= doc["without_tables_cycles"]

    def test_export_json_roundtrip(self, tmp_path):
        import json

        from repro.harness import run_figure4
        from repro.harness.export import export_json

        path = tmp_path / "r.json"
        export_json(run_figure4(work=300), path)
        doc = json.loads(path.read_text())
        assert "failed" in json.dumps(doc) or "with_tables_failed" in doc

    def test_cli_out_writes_files(self, tmp_path, capsys):
        assert harness_main(["figure4", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "figure4.json").exists()

    def test_export_falls_back_to_str(self):
        from repro.harness.export import result_to_dict

        class Opaque:
            def __repr__(self):
                return "<opaque>"

        assert result_to_dict({1: Opaque()}) == {"1": "<opaque>"}


class TestExportAllResultTypes:
    """Every harness result dataclass must export to JSON cleanly."""

    def test_all_result_objects_serialize(self, tmp_path):
        import json

        from repro.harness import (
            ExperimentContext,
            run_dependence_analysis,
            run_figure2,
            run_figure4,
            run_figure5,
            run_figure6,
            run_kv_study,
            run_scalability,
            run_seed_sweep,
            run_table2,
            run_when_to_use,
        )
        from repro.harness.export import export_json
        from repro.kv import KVSpec
        from repro.tpcc import TPCCScale

        ctx = ExperimentContext(n_transactions=1,
                                scale=TPCCScale.tiny())
        results = [
            run_figure4(work=300),
            run_figure5(ctx, benchmarks=["payment"]),
            run_figure6(ctx, benchmarks=("payment",), counts=(2,),
                        spacings=(100,)),
            run_table2(ctx),
            run_figure2(ctx),
            run_scalability(ctx, benchmark="payment",
                            cpu_counts=(1, 2)),
            run_when_to_use(ctx, benchmark="payment", n_jobs=4),
            run_kv_study(thetas=(0.5,), n_batches=1,
                         spec=KVSpec(n_keys=30, ops_per_batch=8,
                                     ops_per_epoch=4)),
            run_dependence_analysis(n_transactions=1,
                                    scale=TPCCScale.tiny()),
            run_seed_sweep(seeds=(1,), n_transactions=1,
                           scale=TPCCScale.tiny()),
        ]
        for i, result in enumerate(results):
            path = tmp_path / f"r{i}.json"
            export_json(result, path)
            json.loads(path.read_text())  # valid JSON
            assert result.render()  # and renderable
