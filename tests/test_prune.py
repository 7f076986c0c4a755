"""Tests for predictor-guided sweep pruning (repro.harness.prune).

Three layers:

* planner units — role assignment, spread sampling, and rank algebra on
  synthetic profiles (no simulation);
* the ISSUE's containment criterion against the *pinned* default-scale
  grid — plan from a freshly profiled trace, then check the simulated
  set still holds each benchmark's true best cell of
  ``results/figure6.json`` while dispatching at most half the grid;
* a tiny end-to-end run — pruned and full sweeps in separate contexts
  must agree exactly on every cell both simulated, and the pruned
  result's manifest block must pass the schema lint.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.harness.ablations import VICTIM_SIZES
from repro.harness.figure6 import (
    FIGURE6_BENCHMARKS,
    SPACINGS,
    SUBTHREAD_COUNTS,
    run_figure6,
)
from repro.harness.prune import (
    ROLE_FRONTIER,
    ROLE_SKIPPED,
    ROLE_VALIDATION,
    PruneOptions,
    _pick_spread,
    dry_run_text,
    plan_figure6_cells,
    plan_victim_sizes,
    profile_for,
    run_figure6_pruned,
)
from repro.harness.runner import ExperimentContext
from repro.obs import assert_valid
from repro.tpcc import TPCCScale

REPO = Path(__file__).resolve().parent.parent
PINNED_FIGURE6 = REPO / "results" / "figure6.json"


def _tiny_ctx() -> ExperimentContext:
    return ExperimentContext(n_transactions=2, scale=TPCCScale.tiny())


# ---------------------------------------------------------------------------
# Planner units
# ---------------------------------------------------------------------------

def test_pick_spread_includes_best_and_worst():
    order = ["a", "b", "c", "d", "e"]
    assert _pick_spread(order, 0) == []
    assert _pick_spread(order, 1) == ["e"]
    assert _pick_spread(order, 2) == ["a", "e"]
    assert _pick_spread(order, 3) == ["a", "c", "e"]
    assert _pick_spread(order, 9) == order
    assert _pick_spread([], 2) == []


@pytest.fixture(scope="module")
def tiny_profile():
    return profile_for(_tiny_ctx(), "new_order")


def test_plan_assigns_roles_over_whole_grid(tiny_profile):
    plans = plan_figure6_cells(tiny_profile, "new_order")
    grid = len(SUBTHREAD_COUNTS) * len(SPACINGS)
    assert len(plans) == grid
    assert sorted(p.rank for p in plans) == list(range(grid))
    roles = {role: [p for p in plans if p.role == role]
             for role in (ROLE_FRONTIER, ROLE_VALIDATION, ROLE_SKIPPED)}
    assert len(roles[ROLE_FRONTIER]) == 4
    assert len(roles[ROLE_VALIDATION]) == 2
    assert len(roles[ROLE_SKIPPED]) == grid - 6
    # Every sub-thread count keeps its predicted-best spacing.
    for count in SUBTHREAD_COUNTS:
        count_plans = [p for p in plans if p.subthreads == count]
        best = min(count_plans, key=lambda p: p.rank)
        assert best.role == ROLE_FRONTIER
    # Ranks follow costs.
    by_rank = sorted(plans, key=lambda p: p.rank)
    costs = [p.cost for p in by_rank]
    assert costs == sorted(costs)


def test_plan_top_k_covering_grid_skips_nothing(tiny_profile):
    plans = plan_figure6_cells(
        tiny_profile, "new_order",
        options=PruneOptions(top_k=len(SUBTHREAD_COUNTS) * len(SPACINGS)),
    )
    assert all(p.role == ROLE_FRONTIER for p in plans)


def test_victim_plan_prefers_zero_overflow(tiny_profile):
    plans = plan_victim_sizes(tiny_profile)
    assert len(plans) == len(VICTIM_SIZES)
    simulated = [p for p in plans if p.role != ROLE_SKIPPED]
    assert len(simulated) <= max(2, len(VICTIM_SIZES) // 2)
    best = min(plans, key=lambda p: p.rank)
    assert best.role == ROLE_FRONTIER
    # The predicted-best size never has more overflow risk than the
    # predicted-worst one (rank order is risk order).
    worst = max(plans, key=lambda p: p.rank)
    assert best.cost <= worst.cost


# ---------------------------------------------------------------------------
# Containment against the pinned default-scale grid
# ---------------------------------------------------------------------------

def test_simulated_set_contains_pinned_best_cells():
    """Plan from fresh default-scale profiles; the pinned grid's true
    best cell (any member of its exact tie set) must be simulated, at
    no more than half the grid per benchmark."""
    pinned = json.loads(PINNED_FIGURE6.read_text())
    ctx = ExperimentContext()
    for benchmark in FIGURE6_BENCHMARKS:
        cells = [c for c in pinned["cells"] if c["benchmark"] == benchmark]
        assert cells, f"pinned grid is missing {benchmark}"
        best = min(c["normalized"] for c in cells)
        tie_set = {
            (c["subthreads"], c["spacing"])
            for c in cells
            if c["normalized"] == best
        }
        plans = plan_figure6_cells(profile_for(ctx, benchmark), benchmark)
        simulated = {
            (p.subthreads, p.spacing)
            for p in plans
            if p.role != ROLE_SKIPPED
        }
        assert len(simulated) <= len(plans) // 2
        assert simulated & tie_set, (
            f"{benchmark}: pruner skipped every best cell {tie_set}"
        )


# ---------------------------------------------------------------------------
# Tiny end-to-end
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def tiny_pruned():
    return run_figure6_pruned(_tiny_ctx(), benchmarks=("new_order",))


def test_pruned_run_halves_dispatch(tiny_pruned):
    assert tiny_pruned.grid_cells == 12
    assert tiny_pruned.simulated_cells == 6
    assert tiny_pruned.dispatch_fraction <= 0.5


def test_pruned_cells_match_full_sweep_exactly(tiny_pruned):
    """Pruning only skips work: each simulated cell's numbers equal the
    full sweep's (fresh context, so nothing is shared via memo)."""
    full = run_figure6(_tiny_ctx(), benchmarks=("new_order",))
    for cell in tiny_pruned.cells:
        ref = full.cell(cell.benchmark, cell.subthreads, cell.spacing)
        assert cell.normalized == ref.normalized
        assert cell.failed_fraction == ref.failed_fraction
        assert cell.primary_violations == ref.primary_violations
    # The pruned best is the grid best (tie-aware).
    grid_best = min(c.normalized for c in full.cells)
    assert tiny_pruned.best_cell("new_order").normalized == grid_best


def test_pruned_manifest_block_lints(tiny_pruned):
    block = tiny_pruned.manifest_block()
    assert_valid(block, kind="predictor")
    assert block["dispatch_fraction"] <= 0.5
    assert block["errors"]["l2_miss_ratio"]["mae"] <= 0.05
    roles = {c.role for c in tiny_pruned.cells}
    assert roles == {ROLE_FRONTIER, ROLE_VALIDATION}


def test_render_mentions_skipped_cells(tiny_pruned):
    text = tiny_pruned.render()
    assert "skip" in text
    assert "dispatched 6/12 cells" in text


# ---------------------------------------------------------------------------
# Dry run
# ---------------------------------------------------------------------------

def test_dry_run_lists_jobs_without_dispatch():
    ctx = _tiny_ctx()
    text = dry_run_text(ctx, "figure6")
    assert "would dispatch" not in text  # plain listing, no pruning
    assert "sequential" in text
    pruned = dry_run_text(ctx, "figure6", PruneOptions())
    assert "[skip]" in pruned and "[run ]" in pruned
    assert "would dispatch 30/60 grid cells" in pruned
    with pytest.raises(ValueError):
        dry_run_text(ctx, "figure5")
