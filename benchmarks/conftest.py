"""Shared fixtures for the benchmark harness.

Traces are generated once per session so the benchmarks measure
*simulation*, not trace generation (mirroring the paper's setup where
binaries are fixed and the simulator is the object of study).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.harness import ExperimentContext, JobRunner


@pytest.fixture(scope="session")
def ctx():
    """Default-scale context, small transaction count for bench runtime."""
    return ExperimentContext(n_transactions=2)


def fresh_context(ctx: ExperimentContext) -> ExperimentContext:
    """``ctx`` with a fresh JobRunner that shares its trace memo.

    The result memo starts empty, so every job simulates again; traces
    stay shared, so a trace generated in one round is reused by every
    later round and benchmark.
    """
    runner = JobRunner(jobs=ctx.runner.jobs,
                       trace_cache=ctx.runner.trace_cache)
    runner._memo = ctx.runner._memo
    return dataclasses.replace(ctx, runner=runner)


def run_once(benchmark, fn, *args, **kwargs):
    """Run a heavyweight experiment once per round (3 rounds).

    ``pedantic(setup=...)`` hands every round, and the untimed warmup
    round before them, a fresh runner for each ExperimentContext
    argument: otherwise rounds 2 and 3 would time result-memo lookups.
    The warmup round absorbs generating any trace not yet in the memo.
    """
    def setup():
        fresh = tuple(
            fresh_context(a) if isinstance(a, ExperimentContext) else a
            for a in args
        )
        return fresh, kwargs

    return benchmark.pedantic(fn, setup=setup, rounds=3, iterations=1,
                              warmup_rounds=1)
