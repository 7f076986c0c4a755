"""Tests for the experiment harness (tiny scale, fast)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.harness import (
    ExperimentContext,
    figure4_workload,
    run_figure2,
    run_figure4,
    run_figure5,
    run_figure6,
    run_load_granularity_ablation,
    run_start_cost_ablation,
    run_table2,
    run_victim_cache_ablation,
)
from repro.sim import ExecutionMode
from repro.sim.config import table1_text
from repro.tpcc import TPCCScale


@pytest.fixture(scope="module")
def ctx():
    return ExperimentContext(n_transactions=2, scale=TPCCScale.tiny())


class TestTable1:
    def test_contains_paper_parameters(self):
        text = table1_text()
        assert "Issue Width" in text and "4" in text
        assert "32KB" in text
        assert "2MB" in text
        assert "64 entry" in text
        assert "GShare" in text


class TestTable2:
    def test_rows_for_all_benchmarks(self, ctx):
        result = run_table2(ctx)
        assert len(result.rows) == 7
        for row in result.rows:
            assert row.exec_cycles > 0
            assert 0.0 <= row.coverage <= 1.0
        # NEW ORDER 150 has ~10x the threads of NEW ORDER.
        no = result.row("new_order")
        no150 = result.row("new_order_150")
        assert no150.threads_per_transaction > (
            5 * no.threads_per_transaction
        )
        # DELIVERY OUTER threads are larger than DELIVERY's.
        assert (
            result.row("delivery_outer").avg_thread_size
            > result.row("delivery").avg_thread_size
        )
        assert "Table 2" in result.render()


class TestFigure5:
    @pytest.fixture(scope="class")
    def result(self, ctx):
        return run_figure5(ctx, benchmarks=["new_order", "payment"])

    def test_all_bars_present(self, result):
        assert len(result.bars) == 2 * 5

    def test_sequential_normalized_to_one(self, result):
        bar = result.bar("new_order", ExecutionMode.SEQUENTIAL)
        assert bar.normalized == pytest.approx(1.0)
        assert bar.speedup == pytest.approx(1.0)

    def test_fractions_sum_to_one(self, result):
        for bar in result.bars:
            assert sum(bar.fractions.values()) == pytest.approx(1.0,
                                                                abs=1e-6)

    def test_render_mentions_modes(self, result):
        text = result.render()
        assert "NO SUB-THREAD" in text and "BASELINE" in text

    def test_requires_sequential_first(self, ctx):
        with pytest.raises(ValueError):
            run_figure5(
                ctx,
                benchmarks=["payment"],
                modes=[ExecutionMode.BASELINE],
            )


class TestFigure6:
    def test_grid_complete(self, ctx):
        result = run_figure6(
            ctx,
            benchmarks=("new_order",),
            counts=(2, 8),
            spacings=(100, 400),
        )
        assert len(result.cells) == 4
        for c in result.cells:
            assert c.normalized > 0
        best = result.best_cell("new_order")
        assert best.normalized == min(c.normalized for c in result.cells)
        assert "Figure 6" in result.render()


class TestFigure4:
    def test_workload_shape(self):
        wl = figure4_workload()
        assert wl.epoch_count() == 4

    def test_start_tables_save_failed_cycles(self):
        result = run_figure4()
        assert result.failed_cycles_saved > 0
        assert result.with_tables_cycles <= result.without_tables_cycles
        assert "start tables" in result.render()


class TestFigure2:
    def test_tuning_mostly_monotone_with_subthreads(self):
        result = run_figure2(n_transactions=2, scale=TPCCScale.tiny())
        assert len(result.steps) == 5
        # Fully optimized beats unoptimized under sub-thread TLS.
        assert (
            result.steps[-1].subthread_cycles
            < result.steps[0].subthread_cycles
        )
        assert result.subthread_monotone_fraction() >= 0.5
        assert "tuning" in result.render()


class TestAblations:
    def test_victim_cache_sweep(self, ctx):
        result = run_victim_cache_ablation(
            ctx, benchmark="new_order_150", sizes=(0, 64)
        )
        zero = result.points[0]
        full = result.points[1]
        # Without a victim cache, overflows (if any pressure exists) are
        # at least as frequent, and runtime no better.
        assert zero.extra["overflow_squashes"] >= full.extra[
            "overflow_squashes"
        ]
        assert zero.cycles >= full.cycles * 0.99
        assert "victim" in result.render()

    def test_start_cost_sweep(self, ctx):
        result = run_start_cost_ablation(ctx, costs=(0, 2000))
        assert result.points[1].cycles > result.points[0].cycles

    def test_granularity_sweep(self, ctx):
        result = run_load_granularity_ablation(ctx)
        line, word = result.points
        assert word.extra["violations"] <= line.extra["violations"]


class TestSeedSweep:
    def test_sweep_statistics(self):
        from repro.harness import run_seed_sweep
        from repro.sim import ExecutionMode

        result = run_seed_sweep(
            benchmark="new_order",
            seeds=(1, 2, 3),
            n_transactions=1,
            scale=TPCCScale.tiny(),
        )
        base = result.speedups[ExecutionMode.BASELINE]
        assert len(base) == 3
        lo, hi = result.spread(ExecutionMode.BASELINE)
        assert lo <= result.mean(ExecutionMode.BASELINE) <= hi
        assert result.stdev(ExecutionMode.BASELINE) >= 0
        assert "Seed sweep" in result.render()

    def test_ordering_robust_across_seeds(self):
        from repro.harness import run_seed_sweep
        from repro.sim import ExecutionMode

        result = run_seed_sweep(
            benchmark="new_order",
            seeds=(5, 6),
            n_transactions=2,
            scale=TPCCScale.tiny(),
        )
        # Mean ordering: speculation-off upper bound >= baseline.
        assert result.mean(ExecutionMode.NO_SPECULATION) >= (
            result.mean(ExecutionMode.BASELINE) * 0.9
        )


class TestWhenToUse:
    def test_policy_shapes(self):
        from repro.harness import ExperimentContext, run_when_to_use

        ctx = ExperimentContext(n_transactions=2, scale=TPCCScale.tiny())
        result = run_when_to_use(ctx, benchmark="new_order", n_jobs=12)
        low_tls = result.outcome("always-tls", "low (idle CPUs)")
        low_never = result.outcome("never-tls", "low (idle CPUs)")
        hi_tls = result.outcome("always-tls", "high (saturated)")
        hi_never = result.outcome("never-tls", "high (saturated)")
        adaptive_low = result.outcome("adaptive", "low (idle CPUs)")
        adaptive_hi = result.outcome("adaptive", "high (saturated)")
        # Section 3.3: TLS wins latency when CPUs are idle; one-CPU
        # concurrency wins throughput at saturation; adaptive tracks the
        # better policy at each extreme.
        assert low_tls.mean_latency <= low_never.mean_latency
        assert hi_never.makespan <= hi_tls.makespan
        assert adaptive_low.mean_latency <= low_never.mean_latency
        assert adaptive_hi.makespan <= hi_tls.makespan * 1.10
        assert "E10" in result.render()

    def test_unknown_policy_rejected(self):
        from repro.harness.whentouse import _simulate_policy

        with pytest.raises(ValueError):
            _simulate_policy("bogus", [0.0], [(1.0, 2.0)])


class TestFigure6PaperSize:
    def test_paper_sized_threads_need_scaled_spacing(self):
        from repro.harness import run_figure6_paper_size

        result = run_figure6_paper_size(
            n_transactions=2, spacings=(250, 6250)
        )
        tiny = result.cell("new_order", 8, 250).normalized
        scaled = result.cell("new_order", 8, 6250).normalized
        # The paper's lesson: spacing must track thread size — the
        # default scaled-down spacing under-covers 50k-instruction
        # threads while thread-size/8 recovers the benefit.
        assert scaled <= tiny + 0.01
        # Epochs at this scale are genuinely paper-sized.
        assert "Figure 6" in result.render()


class TestMixLatency:
    def test_per_type_latency(self):
        from repro.harness import run_mix_latency

        result = run_mix_latency(n_transactions=8,
                                 scale=TPCCScale.tiny())
        assert sum(r.count for r in result.rows) == 8
        # PAYMENT doesn't profit; parallel transactions do.
        for row in result.rows:
            if row.txn_type == "payment":
                assert row.speedup < 1.25
            assert row.speedup > 0.75
        assert result.overall_speedup() > 0.9
        assert "E13" in result.render()


class TestImportFootprint:
    def test_drivers_do_not_import_numpy(self):
        # numpy is not a dependency; importing the Figure-5/6, sampled
        # and export drivers must not pull it in (importing numpy costs
        # about 0.1 s of every harness start-up).
        src = Path(__file__).resolve().parent.parent / "src"
        code = (
            "import sys\n"
            "import repro.harness.figure5, repro.harness.figure6\n"
            "import repro.harness.sampled, repro.harness.export\n"
            "sys.exit(1 if 'numpy' in sys.modules else 0)\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
        )
        assert done.returncode == 0, done.stderr.decode()
