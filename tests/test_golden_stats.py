"""Golden-stats regression: Figure 5 tiny-scale cycle counts are pinned.

The simulator is deterministic, so any change to its timing model shows
up as a cycle-count drift somewhere in Figure 5.  This test pins every
(benchmark, mode) total-cycle count at tiny scale to
``tests/golden/figure5_tiny.json``.  After an *intentional* timing
change, refresh the file with::

    PYTHONPATH=src python -m pytest tests/test_golden_stats.py --update-golden
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from repro.core.engine import TLSConfig
from repro.harness.figure5 import run_figure5
from repro.harness.figure6 import run_figure6
from repro.harness.runner import ExperimentContext
from repro.tpcc import TPCCScale

GOLDEN = Path(__file__).parent / "golden" / "figure5_tiny.json"


@pytest.fixture(scope="module")
def figure5_tiny():
    ctx = ExperimentContext(
        n_transactions=2, seed=42, scale=TPCCScale.tiny()
    )
    return run_figure5(ctx)


def test_figure5_tiny_cycles_pinned(figure5_tiny, request):
    got = {
        f"{bar.benchmark}/{bar.mode}": bar.total_cycles
        for bar in figure5_tiny.bars
    }
    if request.config.getoption("--update-golden"):
        GOLDEN.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN.write_text(
            json.dumps(got, indent=1, sort_keys=True) + "\n"
        )
    assert GOLDEN.exists(), (
        "no golden file; generate one with --update-golden"
    )
    want = json.loads(GOLDEN.read_text())
    assert got == want, (
        "cycle counts drifted from tests/golden/figure5_tiny.json; if "
        "the timing change is intentional, re-run with --update-golden"
    )


def test_golden_covers_every_benchmark_and_mode(figure5_tiny):
    want = json.loads(GOLDEN.read_text())
    keys = {f"{b.benchmark}/{b.mode}" for b in figure5_tiny.bars}
    assert set(want) == keys


def test_speedups_stay_sane(figure5_tiny):
    """Loose physical bounds that hold regardless of timing tweaks."""
    for bar in figure5_tiny.bars:
        assert bar.total_cycles > 0
        if bar.mode == "sequential":
            assert bar.normalized == pytest.approx(1.0)
        else:
            assert 0.05 < bar.normalized < 3.0


def test_figure6_cell_cut_by_the_slice_limit_pinned():
    """A default-scale Figure-6 cell whose sub-thread spacing is above
    the speculative slice limit, so the limit, not the spacing, cuts its
    compute slices.  It must reproduce its ``results/figure6.json``
    cell (the CI ``cmp`` of that file is the only other check)."""
    assert TLSConfig().spec_slice_limit < 1000
    doc = json.loads(
        (Path(__file__).parent.parent / "results" / "figure6.json")
        .read_text()
    )
    want = next(
        c for c in doc["cells"]
        if (c["benchmark"], c["subthreads"], c["spacing"])
        == ("new_order_150", 2, 1000)
    )
    result = run_figure6(
        ExperimentContext(n_transactions=4, seed=42),
        benchmarks=("new_order_150",), counts=(2,), spacings=(1000,),
    )
    assert result.sequential_cycles["new_order_150"] == (
        doc["sequential_cycles"]["new_order_150"]
    )
    assert dataclasses.asdict(result.cell("new_order_150", 2, 1000)) == want
