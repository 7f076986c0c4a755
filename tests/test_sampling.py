"""Validation of the statistical sampler against exhaustive simulation.

The load-bearing guarantees, each pinned here:

* **Coverage** — across 20 sampler seeds at rate 0.1, every Figure-5
  cycle-breakdown metric's exhaustive value falls inside the reported
  95% CI at least 90% of the time, on both the figure5-tiny trace and a
  mid-size default-scale trace.  This is the empirical validation of
  the warmup design (functional prefix + 4-transaction detailed tail)
  plus the residual-bias guard.
* **Exactness** — with full-prefix warmup the per-unit values telescope,
  so a full-coverage plan reproduces the exhaustive totals exactly.
* **Byte identity** — ``--sample-rate 1.0`` takes the exhaustive CLI
  path and its ``figure5.json`` is byte-identical to an unsampled run.
* **Determinism** — estimates are a pure function of the sampler seed:
  identical across repeat runs, across ``--jobs`` worker counts, and
  across ``PYTHONHASHSEED`` values.
* **Muting invariance** — the huge-scale driver's muted generation
  keeps every *recorded* transaction byte-identical to a full
  recording (the recorder is passive; only record retention differs).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.harness.export import export_json
from repro.harness.runner import JobRunner
from repro.harness.sampled import (
    CYCLE_METRICS,
    METRICS,
    estimate_workload,
    metric_vector,
    run_figure5_sampled,
    run_huge,
)
from repro.harness.runner import ExperimentContext
from repro.obs import assert_valid
from repro.sim import ExecutionMode, Machine, MachineConfig
from repro.tpcc import TPCCScale, generate_sampled_mix_workload, \
    generate_workload
from repro.trace.sampling import SamplerConfig, build_plan, \
    transaction_density

#: The metrics whose coverage the acceptance criterion pins.
CHECK_METRICS = ("total_cycles",) + CYCLE_METRICS

#: Seeds for the empirical-coverage sweep (>= 20 per the criterion).
COVERAGE_SEEDS = range(20)

#: Minimum hits out of 20 for 90% empirical coverage.
MIN_HITS = 18

HUGE_SMOKE_GOLDEN = Path(__file__).parent / "golden" / "huge_smoke.json"


@pytest.fixture(scope="module")
def runner():
    return JobRunner()


@pytest.fixture(scope="module")
def tiny_trace():
    """The figure5-tiny NEW ORDER trace (TLS mode), 12 transactions."""
    return generate_workload(
        "new_order", tls_mode=True, n_transactions=12,
        scale=TPCCScale.tiny(),
    ).trace


@pytest.fixture(scope="module")
def tiny_trace_seq():
    return generate_workload(
        "new_order", tls_mode=False, n_transactions=12,
        scale=TPCCScale.tiny(),
    ).trace


@pytest.fixture(scope="module")
def mid_trace():
    """A mid-size default-scale NEW ORDER trace, 24 transactions."""
    return generate_workload(
        "new_order", tls_mode=True, n_transactions=24,
    ).trace


def _coverage_hits(trace, mode, runner, rate=0.1):
    """Per-metric count of seeds whose CI contains the exhaustive value."""
    config = MachineConfig.for_mode(mode)
    exact = metric_vector(Machine(config).run(trace))
    hits = {m: 0 for m in CHECK_METRICS}
    for seed in COVERAGE_SEEDS:
        sampler = SamplerConfig(rate=rate, seed=seed)
        estimates, plan, _ = estimate_workload(
            trace, config, sampler, runner=runner
        )
        assert not plan.covers_all, (
            "coverage sweep degenerated to full enumeration; "
            "the trace is too small for this rate"
        )
        for metric in CHECK_METRICS:
            if estimates[metric].contains(exact[metric]):
                hits[metric] += 1
    return hits


@pytest.mark.parametrize("mode", [
    ExecutionMode.BASELINE, ExecutionMode.SEQUENTIAL,
])
def test_tiny_coverage_at_rate_point1(
    tiny_trace, tiny_trace_seq, runner, mode
):
    trace = (
        tiny_trace_seq if mode == ExecutionMode.SEQUENTIAL
        else tiny_trace
    )
    hits = _coverage_hits(trace, mode, runner)
    low = {m: n for m, n in hits.items() if n < MIN_HITS}
    assert not low, (
        f"metrics below 90% empirical coverage over 20 seeds: {low}"
    )


def test_midsize_coverage_at_rate_point1(mid_trace, runner):
    hits = _coverage_hits(mid_trace, ExecutionMode.BASELINE, runner)
    low = {m: n for m, n in hits.items() if n < MIN_HITS}
    assert not low, (
        f"metrics below 90% empirical coverage over 20 seeds: {low}"
    )


def test_full_coverage_full_warmup_is_exact(tiny_trace, runner):
    """rate=1, warmup=-1: the telescoping identity makes every estimate
    equal the exhaustive total, with zero sampling variance."""
    config = MachineConfig.for_mode(ExecutionMode.BASELINE)
    exact = metric_vector(Machine(config).run(tiny_trace))
    sampler = SamplerConfig(rate=1.0, warmup=-1, functional_window=-1)
    estimates, plan, _ = estimate_workload(
        tiny_trace, config, sampler, runner=runner
    )
    assert plan.covers_all
    for metric in METRICS:
        est = estimates[metric]
        assert est.point == pytest.approx(exact[metric], abs=1e-6), metric
        assert est.std_error == 0.0, metric


def test_estimates_deterministic_for_fixed_seed(tiny_trace, runner):
    config = MachineConfig.for_mode(ExecutionMode.BASELINE)
    sampler = SamplerConfig(rate=0.25, seed=7)
    first, plan1, acct1 = estimate_workload(
        tiny_trace, config, sampler, runner=runner
    )
    second, plan2, acct2 = estimate_workload(
        tiny_trace, config, sampler, runner=runner
    )
    assert plan1 == plan2
    assert first == second
    assert acct1 == acct2


def test_estimates_independent_of_jobs(tiny_trace):
    """--jobs fan-out must not change a single estimated digit."""
    config = MachineConfig.for_mode(ExecutionMode.BASELINE)
    sampler = SamplerConfig(rate=0.25, seed=3)
    serial, _, _ = estimate_workload(
        tiny_trace, config, sampler, runner=JobRunner(jobs=1)
    )
    parallel, _, _ = estimate_workload(
        tiny_trace, config, sampler, runner=JobRunner(jobs=2)
    )
    assert serial == parallel


def test_different_seeds_differ(tiny_trace):
    """Sanity: the sampler seed actually changes the sample."""
    plans = {
        build_plan(
            len(tiny_trace.transactions),
            SamplerConfig(rate=0.25, seed=seed),
            density=transaction_density(tiny_trace),
        ).sampled_units
        for seed in range(8)
    }
    assert len(plans) > 1


_HASHSEED_SNIPPET = """
import hashlib, json
from repro.tpcc import TPCCScale, generate_workload
from repro.trace.sampling import SamplerConfig, build_plan, \
    transaction_density

trace = generate_workload(
    "new_order", tls_mode=True, n_transactions=10,
    scale=TPCCScale.tiny(),
).trace
plan = build_plan(
    len(trace.transactions), SamplerConfig(rate=0.3, seed=5),
    density=transaction_density(trace),
    labels=["even" if i % 2 == 0 else "odd"
            for i in range(len(trace.transactions))],
)
doc = json.dumps(
    {"units": plan.sampled_units, "describe": plan.describe()},
    sort_keys=True,
)
print(hashlib.sha256(doc.encode()).hexdigest())
"""


def test_plan_independent_of_pythonhashseed():
    """Strata iteration must not leak dict/set hash order: the same
    plan digest under different PYTHONHASHSEED values."""
    digests = set()
    for hashseed in ("0", "1", "31337"):
        proc = subprocess.run(
            [sys.executable, "-c", _HASHSEED_SNIPPET],
            capture_output=True, text=True,
            env={
                "PYTHONHASHSEED": hashseed,
                "PYTHONPATH": str(
                    Path(__file__).resolve().parent.parent / "src"
                ),
            },
            check=True,
        )
        digests.add(proc.stdout.strip())
    assert len(digests) == 1, digests


def test_sample_rate_one_cli_byte_identity(tmp_path):
    """--sample-rate 1.0 must export figure5.json byte-identical to an
    unsampled run (the CLI bypasses the sampling machinery)."""
    from repro.harness.__main__ import main

    plain = tmp_path / "plain"
    sampled = tmp_path / "sampled"
    base = ["figure5", "--tiny", "--transactions", "2",
            "--no-trace-cache", "--seed", "42"]
    assert main(base + ["--out", str(plain)]) == 0
    assert main(
        base + ["--sample-rate", "1.0", "--out", str(sampled)]
    ) == 0
    assert (sampled / "figure5.json").exists(), (
        "rate 1.0 must take the exhaustive path and export figure5.json"
    )
    assert (
        (plain / "figure5.json").read_bytes()
        == (sampled / "figure5.json").read_bytes()
    )


def test_muted_generation_keeps_recorded_txns_identical():
    """The huge-scale driver's muting must not perturb what IS recorded:
    kept transactions are byte-identical to a fully-recorded run, and
    muted ones intern every PC name a recorded run would, in order."""
    kept = {1, 4, 5}
    full = generate_sampled_mix_workload(
        n_transactions=8, seed=11, scale=TPCCScale.tiny(),
        record_indices=None,
    )
    partial = generate_sampled_mix_workload(
        n_transactions=8, seed=11, scale=TPCCScale.tiny(),
        record_indices=kept,
    )
    assert [r["_type"] for r in full.results] == \
        [r["_type"] for r in partial.results]
    for i in kept:
        assert full.trace.transactions[i] == \
            partial.trace.transactions[i], f"transaction {i} drifted"
    for i in set(range(8)) - kept:
        assert not partial.trace.transactions[i].segments, (
            f"muted transaction {i} retained records"
        )
    assert list(partial.recorder.pcs._by_name.items()) == \
        list(full.recorder.pcs._by_name.items())


def test_mix_type_sequence_matches_unsampled_recording():
    """Full recording through the sampled driver matches the declared
    type sequence (the sampler stratifies on it before generation)."""
    from repro.tpcc import mix_type_sequence

    generated = generate_sampled_mix_workload(
        n_transactions=10, seed=3, scale=TPCCScale.tiny(),
    )
    types = mix_type_sequence(n_transactions=10, seed=3)
    assert [r["_type"] for r in generated.results] == types


@pytest.fixture(scope="module")
def sampled_figure5():
    ctx = ExperimentContext(
        n_transactions=6, seed=42, scale=TPCCScale.tiny()
    )
    return run_figure5_sampled(
        ctx,
        SamplerConfig(rate=0.4, seed=1),
        benchmarks=["new_order"],
    )


def test_sampled_figure5_result_shape(sampled_figure5):
    result = sampled_figure5
    modes = {bar.mode for bar in result.bars}
    assert modes == set(ExecutionMode.ALL)
    for bar in result.bars:
        for metric in METRICS:
            est = bar.estimates[metric]
            assert est.low <= est.point <= est.high
        assert "speedup" in bar.estimates
    seq = result.bar("new_order", ExecutionMode.SEQUENTIAL)
    assert seq.estimates["speedup"].point == pytest.approx(1.0)
    assert result.accounting is not None
    assert result.accounting.transactions_sampled > 0
    assert result.render()


def test_sampled_figure5_manifest_block_schema(sampled_figure5):
    block = sampled_figure5.manifest_block()
    assert_valid(block, kind="sampler")
    # Round-trips through JSON (manifests are JSON sidecars).
    assert_valid(json.loads(json.dumps(block)), kind="sampler")


@pytest.fixture(scope="module")
def huge_smoke(runner):
    """A small run through the huge-scale path: 80 transactions with
    bounded warmup windows (2 detailed + 4 functionally warmed)."""
    return run_huge(
        n_transactions=80, seed=2, runner=runner,
        sampler=SamplerConfig(rate=0.05, warmup=2, functional_window=4),
        scale=TPCCScale(),
    )


def test_run_huge_smoke(huge_smoke):
    """A small run through the huge-scale path end to end: bounded
    windows, muted generation, paired speedup, valid manifest block."""
    result = huge_smoke
    assert set(result.estimates) == {
        ExecutionMode.SEQUENTIAL, ExecutionMode.BASELINE
    }
    assert result.speedup is not None
    assert result.speedup.point > 0
    acct = result.accounting
    assert acct is not None
    assert acct.records_total is None, (
        "huge runs mute unsampled transactions; the exact total is "
        "unknowable"
    )
    assert acct.records_total_estimated > 0
    assert_valid(result.manifest_block(), kind="sampler")


def test_run_huge_smoke_bytes_pinned(huge_smoke, tmp_path, request):
    """The exported huge smoke run is pinned to ``tests/golden/
    huge_smoke.json``: the only tier-1 pin of a run whose functional
    warming replays a bounded window (``functional_window >= 0``).
    After an intentional change, refresh it with::

        PYTHONPATH=src python -m pytest tests/test_sampling.py \\
            -k huge_smoke --update-golden
    """
    fresh = tmp_path / "huge_smoke.json"
    export_json(huge_smoke, fresh)
    if request.config.getoption("--update-golden"):
        HUGE_SMOKE_GOLDEN.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(fresh, HUGE_SMOKE_GOLDEN)
    assert HUGE_SMOKE_GOLDEN.exists(), (
        "no golden file; generate one with --update-golden"
    )
    assert fresh.read_bytes() == HUGE_SMOKE_GOLDEN.read_bytes(), (
        "huge smoke export drifted from tests/golden/huge_smoke.json; "
        "if the change is intentional, re-run with --update-golden"
    )


def test_run_huge_rejects_unbounded_windows(runner):
    with pytest.raises(ValueError):
        run_huge(
            n_transactions=20, runner=runner,
            sampler=SamplerConfig(rate=0.5, warmup=-1),
            scale=TPCCScale.tiny(),
        )
