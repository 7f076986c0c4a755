"""End-to-end assertions of the paper's headline claims (scaled).

These tests pin the *shape* of the reproduction — who wins, roughly by
how much — at the default (non-tiny) scale with a small transaction
count, so they stay meaningful but fast.  Absolute factors are asserted
with generous margins; see EXPERIMENTS.md for the measured values.
The later classes run the experiment drivers themselves (Figures 5 and
6, Table 2, the ablations and extensions) and pin the shape of each
artifact they regenerate.
"""

import pytest

from repro.core.accounting import Category
from repro.harness import (
    ExperimentContext,
    mode_trace,
    run_adaptive_spacing_ablation,
    run_figure5,
    run_figure6,
    run_figure6_paper_size,
    run_kv_study,
    run_l1_tracking_ablation,
    run_mix_latency,
    run_prediction_comparison,
    run_scalability,
    run_table2,
    run_victim_cache_ablation,
)
from repro.harness.figure6 import FIGURE6_BENCHMARKS, SPACINGS
from repro.sim import ExecutionMode, Machine, MachineConfig
from repro.tpcc import BENCHMARKS


@pytest.fixture(scope="module")
def ctx():
    return ExperimentContext(n_transactions=3)


def speedups(ctx, benchmark):
    def simulate(mode):
        trace = mode_trace(ctx, benchmark, mode)
        return Machine(MachineConfig.for_mode(mode)).run(trace)

    seq = simulate(ExecutionMode.SEQUENTIAL)
    out = {"sequential_stats": seq}
    for mode in (
        ExecutionMode.TLS_SEQ,
        ExecutionMode.NO_SUBTHREAD,
        ExecutionMode.BASELINE,
        ExecutionMode.NO_SPECULATION,
    ):
        stats = simulate(mode)
        out[mode] = seq.total_cycles / stats.total_cycles
        out[mode + "_stats"] = stats
    return out


@pytest.fixture(scope="module")
def new_order(ctx):
    return speedups(ctx, "new_order")


@pytest.fixture(scope="module")
def new_order_150(ctx):
    return speedups(ctx, "new_order_150")


@pytest.fixture(scope="module")
def delivery_outer(ctx):
    return speedups(ctx, "delivery_outer")


@pytest.fixture(scope="module")
def stock_level(ctx):
    return speedups(ctx, "stock_level")


@pytest.fixture(scope="module")
def payment(ctx):
    return speedups(ctx, "payment")


class TestHeadlineSpeedups:
    def test_three_transactions_speed_up_substantially(
        self, new_order, delivery_outer, stock_level
    ):
        """Paper: 1.9x-2.9x for three of the five transactions."""
        for result in (new_order, delivery_outer, stock_level):
            assert result[ExecutionMode.BASELINE] > 1.5

    def test_payment_does_not_profit(self, payment):
        """Paper: PAYMENT lacks parallelism -> no meaningful gain."""
        assert payment[ExecutionMode.BASELINE] < 1.45

    def test_tls_seq_software_overhead_in_band(
        self, new_order, delivery_outer, payment
    ):
        """Paper: TLS software transformation costs 0.93x-1.05x."""
        for result in (new_order, delivery_outer, payment):
            assert 0.85 <= result[ExecutionMode.TLS_SEQ] <= 1.15

    def test_no_speculation_is_upper_bound(
        self, new_order, new_order_150, delivery_outer, stock_level
    ):
        for result in (new_order, new_order_150, delivery_outer,
                       stock_level):
            assert (
                result[ExecutionMode.NO_SPECULATION]
                >= result[ExecutionMode.BASELINE] * 0.97
            )


class TestSubThreadClaims:
    def test_subthreads_beat_all_or_nothing(
        self, new_order, new_order_150, delivery_outer
    ):
        for result in (new_order, new_order_150, delivery_outer):
            assert (
                result[ExecutionMode.BASELINE]
                >= result[ExecutionMode.NO_SUBTHREAD]
            )

    def test_all_or_nothing_useless_for_many_dependent_threads(
        self, new_order_150
    ):
        """Paper: with large, frequently-dependent threads the
        all-or-nothing approach yields very little gain, while
        sub-threads recover most of it."""
        assert new_order_150[ExecutionMode.NO_SUBTHREAD] < 1.55
        assert (
            new_order_150[ExecutionMode.BASELINE]
            > new_order_150[ExecutionMode.NO_SUBTHREAD] + 0.2
        )

    def test_subthreads_cut_failed_cycles(self, new_order_150):
        nosub = new_order_150[ExecutionMode.NO_SUBTHREAD + "_stats"]
        sub = new_order_150[ExecutionMode.BASELINE + "_stats"]
        assert (
            sub.breakdown().get(Category.FAILED)
            < nosub.breakdown().get(Category.FAILED)
        )

    def test_violations_exist_and_are_tolerated(self, new_order_150):
        sub = new_order_150[ExecutionMode.BASELINE + "_stats"]
        assert sub.primary_violations > 0
        assert sub.epochs_committed == sub.epochs_total


class TestBreakdownShapes:
    def test_sequential_idles_three_cpus(self, new_order):
        seq = new_order["sequential_stats"]
        frac = seq.breakdown_fractions()
        assert frac[Category.IDLE] > 0.70
        assert frac[Category.FAILED] == 0.0

    def test_no_speculation_never_fails(self, delivery_outer):
        stats = delivery_outer[ExecutionMode.NO_SPECULATION + "_stats"]
        assert stats.breakdown().get(Category.FAILED) == 0.0
        assert stats.primary_violations == 0

    def test_stock_level_is_read_mostly(self, stock_level):
        """STOCK LEVEL's baseline run violates rarely (read-only body)."""
        stats = stock_level[ExecutionMode.BASELINE + "_stats"]
        per_epoch = stats.primary_violations / max(1, stats.epochs_total)
        assert per_epoch < 1.0


@pytest.fixture(scope="module")
def sweep_ctx():
    """Default scale, 2 transactions, seed 42: one context shared by
    every driver below, so the runner memo reuses traces and SEQUENTIAL
    baselines from one sweep to the next."""
    return ExperimentContext(n_transactions=2)


class TestFigureShapes:
    def test_figure5_subthreads_never_lose(self, sweep_ctx):
        """Figure 5: sub-thread TLS never loses to all-or-nothing."""
        result = run_figure5(sweep_ctx, modes=[
            ExecutionMode.SEQUENTIAL, ExecutionMode.NO_SUBTHREAD,
            ExecutionMode.BASELINE,
        ])
        for benchmark in BENCHMARKS:
            baseline = result.bar(benchmark, ExecutionMode.BASELINE)
            nosub = result.bar(benchmark, ExecutionMode.NO_SUBTHREAD)
            assert baseline.normalized <= nosub.normalized * 1.02, benchmark

    def test_figure6_more_contexts_never_hurt(self, sweep_ctx):
        """Figure 6: "adding more sub-threads does not ... have a
        negative impact"."""
        result = run_figure6(sweep_ctx, counts=(2, 8))
        for benchmark in FIGURE6_BENCHMARKS:
            for spacing in SPACINGS:
                two = result.cell(benchmark, 2, spacing).normalized
                eight = result.cell(benchmark, 8, spacing).normalized
                assert eight <= two * 1.05, (benchmark, spacing)

    def test_figure6_paper_size_needs_wide_spacing(self):
        """Small spacings under-cover ~50k-instruction threads."""
        best = run_figure6_paper_size().best_cell("new_order")
        assert best.spacing >= 1000

    def test_table2_delivery_outer_threads_largest(self, sweep_ctx):
        """Table 2: DELIVERY OUTER has the largest threads."""
        result = run_table2(sweep_ctx)
        largest = max(result.rows, key=lambda r: r.avg_thread_size)
        assert largest.benchmark == "delivery_outer"


class TestAblationShapes:
    def test_victim_cache_64_entries_suffice(self, sweep_ctx):
        """Footnote 1: growing the victim cache past 64 entries buys
        nothing."""
        result = run_victim_cache_ablation(sweep_ctx)
        cycles = {p.value: p.cycles for p in result.points}
        assert cycles[256] >= cycles[64] * 0.99

    def test_adaptive_spacing_never_loses_badly(self, sweep_ctx):
        """§5.1's adaptive spacing never loses badly, and wins for the
        large-thread benchmark the fixed spacing under-covers."""
        result = run_adaptive_spacing_ablation(sweep_ctx)
        gains = {p.value: p.extra["adaptive_gain"] for p in result.points}
        assert all(g > 0.93 for g in gains.values()), gains
        assert gains["delivery_outer"] >= 1.0

    def test_l1_tracking_not_worthwhile(self, sweep_ctx):
        """§2.2: per-sub-thread L1 tracking barely moves runtime."""
        unaware, tracking = run_l1_tracking_ablation(sweep_ctx).points
        assert tracking.cycles >= unaware.cycles * 0.90


class TestExtensionShapes:
    def test_sync_prediction_over_synchronizes(self, sweep_ctx):
        """§1.2 on NEW ORDER 150: synchronization collapses violations
        but over-synchronizes; sub-threads stay the better mechanism."""
        result = run_prediction_comparison(sweep_ctx)
        sync = result.point("all-or-nothing + sync predictor")
        plain = result.point("all-or-nothing")
        subthreads = result.point("sub-threads (periodic, paper)")
        assert sync.violations < plain.violations
        assert sync.sync_fraction > plain.sync_fraction
        assert subthreads.speedup >= sync.speedup

    def test_subthreads_scale_with_cpus(self, sweep_ctx):
        """E9: all-or-nothing never beats sub-threads at any width, and
        sub-thread TLS holds or improves from 2 to 8 CPUs."""
        result = run_scalability(sweep_ctx, cpu_counts=(1, 2, 4, 8))
        for p in result.points:
            assert p.baseline_speedup >= p.all_or_nothing_speedup * 0.98
        assert result.point(8).baseline_speedup >= (
            result.point(2).baseline_speedup
        )

    def test_skew_hurts_all_or_nothing_more(self):
        """E11: key skew costs all-or-nothing at least as much as
        sub-threads."""
        result = run_kv_study()
        uniform, hot = result.points[0], result.points[-1]
        aon_loss = 1 - hot.no_subthread_speedup / uniform.no_subthread_speedup
        sub_loss = 1 - hot.baseline_speedup / uniform.baseline_speedup
        assert aon_loss >= sub_loss - 0.03

    def test_mix_payment_gains_least(self):
        """E13: in the standard mix, PAYMENT gains less than NEW ORDER,
        and the mix as a whole still speeds up."""
        result = run_mix_latency(n_transactions=16)
        assert result.row("payment").speedup < result.row("new_order").speedup
        assert result.overall_speedup() > 1.2
