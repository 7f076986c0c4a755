"""Ablation experiments A1-A6 (design choices DESIGN.md calls out).

* **A1 victim-cache size** — the paper sizes the speculative victim cache
  at 64 entries to avoid stalling threads on cache overflow (footnote 1);
  sweep the size down to 0 and measure overflow squashes and runtime.
* **A2 sub-thread start cost** — the paper models register backup at zero
  cycles; sweep a nonzero cost to see how cheap checkpoints must be.
* **A3 load-tracking granularity** — the paper tracks speculative loads
  at cache-line granularity; compare against word granularity to
  quantify false-sharing violations.
* **A4 per-sub-thread L1 tracking** — the extension the paper deems "not
  worthwhile" (implemented in `run_l1_tracking_ablation`).
* **A5 adaptive sub-thread spacing** — Section 5.1's closing suggestion.
* **A6 load-miss overlap** — blocking vs MSHR/ROB-window overlapped
  misses, bounding the cost of the trace-driven blocking-load
  simplification.

Each ablation describes its sweep as a :class:`SimJob` list so the
harness can fan the simulations out over worker processes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional

from ..sim import ExecutionMode, MachineConfig
from .report import render_table
from .runner import ExperimentContext, SimJob


@dataclass
class SweepPoint:
    value: object
    cycles: float
    extra: dict = field(default_factory=dict)


@dataclass
class SweepResult:
    title: str
    parameter: str
    points: List[SweepPoint] = field(default_factory=list)

    def render(self) -> str:
        extras = sorted(
            {k for p in self.points for k in p.extra}
        )
        return render_table(
            [self.parameter, "cycles"] + extras,
            [
                [str(p.value), f"{p.cycles:.0f}"]
                + [p.extra.get(k, "") for k in extras]
                for p in self.points
            ],
            title=self.title,
        )


def run_victim_cache_ablation(
    ctx: Optional[ExperimentContext] = None,
    benchmark: str = "delivery_outer",
    sizes=(0, 4, 16, 64, 256),
) -> SweepResult:
    """A1: sweep the speculative victim cache size."""
    ctx = ctx or ExperimentContext()
    spec = ctx.spec(benchmark, mode=ExecutionMode.BASELINE)
    stats_list = ctx.run(
        SimJob(config=replace(MachineConfig(), victim_entries=size),
               spec=spec)
        for size in sizes
    )
    result = SweepResult(
        title=f"A1 — victim-cache size sweep ({benchmark})",
        parameter="entries",
    )
    for size, stats in zip(sizes, stats_list):
        result.points.append(
            SweepPoint(
                value=size,
                cycles=stats.total_cycles,
                extra={
                    "spills": stats.victim_spills,
                    "overflow_squashes": stats.overflow_squashes,
                },
            )
        )
    return result


def run_start_cost_ablation(
    ctx: Optional[ExperimentContext] = None,
    benchmark: str = "new_order",
    costs=(0, 10, 50, 200, 1000),
) -> SweepResult:
    """A2: sweep the cycles charged per sub-thread checkpoint."""
    ctx = ctx or ExperimentContext()
    spec = ctx.spec(benchmark, mode=ExecutionMode.BASELINE)
    stats_list = ctx.run(
        SimJob(config=MachineConfig().with_tls(subthread_start_cost=cost),
               spec=spec)
        for cost in costs
    )
    result = SweepResult(
        title=f"A2 — sub-thread start cost sweep ({benchmark})",
        parameter="cycles/checkpoint",
    )
    for cost, stats in zip(costs, stats_list):
        result.points.append(
            SweepPoint(
                value=cost,
                cycles=stats.total_cycles,
                extra={"subthreads": stats.subthreads_started},
            )
        )
    return result


def run_overlap_loads_ablation(
    ctx: Optional[ExperimentContext] = None,
    benchmark: str = "stock_level",
) -> SweepResult:
    """A6: blocking vs overlapped (MSHR/ROB-windowed) load misses.

    The paper's detailed out-of-order cores overlap independent misses;
    our default trace-driven model blocks on loads (the sound choice for
    value-free traces).  This ablation bounds how much that simplification
    costs, using the bounded-window overlap model.  Both TLS modes get
    the same treatment, so Figure 5's *relative* results are insensitive
    to the choice.
    """
    ctx = ctx or ExperimentContext()
    models = (("blocking (default)", False),
              ("overlapped (MSHR=8, ROB window)", True))
    jobs = []
    for _label, overlap in models:
        for mode in (ExecutionMode.SEQUENTIAL, ExecutionMode.BASELINE):
            jobs.append(SimJob(
                config=replace(
                    MachineConfig.for_mode(mode), overlap_loads=overlap
                ),
                spec=ctx.spec(benchmark, mode=mode),
            ))
    stats_list = iter(ctx.run(jobs))
    result = SweepResult(
        title=f"A6 — load-miss overlap model ({benchmark})",
        parameter="model",
    )
    for label, _overlap in models:
        seq_stats = next(stats_list)
        base_stats = next(stats_list)
        result.points.append(
            SweepPoint(
                value=label,
                cycles=base_stats.total_cycles,
                extra={
                    "speedup": round(
                        seq_stats.total_cycles / base_stats.total_cycles,
                        2,
                    ),
                    "miss_fraction": round(
                        base_stats.breakdown_fractions()["cache_miss"], 2
                    ),
                },
            )
        )
    return result


def run_adaptive_spacing_ablation(
    ctx: Optional[ExperimentContext] = None,
    benchmarks=("new_order", "new_order_150", "delivery_outer"),
) -> SweepResult:
    """A5: adaptive sub-thread spacing (Section 5.1's suggestion).

    "Instead of choosing a single fixed sub-thread size, a better
    strategy may be to customize the sub-thread size such that the
    average thread size for an application would be divided evenly into
    sub-threads."  We implement it (spacing = thread size / contexts)
    and compare against the fixed-spacing baseline per benchmark.
    """
    ctx = ctx or ExperimentContext()
    jobs = []
    for benchmark in benchmarks:
        spec = ctx.spec(benchmark, mode=ExecutionMode.BASELINE)
        jobs.append(SimJob(
            config=MachineConfig.for_mode(ExecutionMode.BASELINE),
            spec=spec,
        ))
        jobs.append(SimJob(
            config=MachineConfig().with_tls(adaptive_spacing=True),
            spec=spec,
        ))
    stats_list = iter(ctx.run(jobs))
    result = SweepResult(
        title="A5 — adaptive sub-thread spacing",
        parameter="benchmark",
    )
    for benchmark in benchmarks:
        fixed = next(stats_list)
        adaptive = next(stats_list)
        result.points.append(
            SweepPoint(
                value=benchmark,
                cycles=adaptive.total_cycles,
                extra={
                    "fixed_cycles": round(fixed.total_cycles),
                    "adaptive_gain": round(
                        fixed.total_cycles / adaptive.total_cycles, 3
                    ),
                },
            )
        )
    return result


def run_l1_tracking_ablation(
    ctx: Optional[ExperimentContext] = None,
    benchmark: str = "new_order_150",
) -> SweepResult:
    """A4: sub-thread tracking in the L1 caches.

    The paper: "To reduce these L1 cache misses on a violation the L1
    cache could also be extended to track sub-threads, however we have
    found this support to be not worthwhile."  This ablation measures
    both designs; the expected result is a marginal difference.
    """
    ctx = ctx or ExperimentContext()
    designs = (
        ("sub-thread-unaware (paper)", False),
        ("per-sub-thread tracking", True),
    )
    spec = ctx.spec(benchmark, mode=ExecutionMode.BASELINE)
    stats_list = ctx.run(
        SimJob(
            config=replace(MachineConfig(), l1_subthread_tracking=tracking),
            spec=spec,
        )
        for _label, tracking in designs
    )
    result = SweepResult(
        title=f"A4 — L1 sub-thread tracking ({benchmark})",
        parameter="L1 design",
    )
    for (label, _tracking), stats in zip(designs, stats_list):
        result.points.append(
            SweepPoint(
                value=label,
                cycles=stats.total_cycles,
                extra={
                    "l1_spec_invalidations": stats.l1_spec_invalidations,
                    "l1_misses": stats.l1_misses,
                },
            )
        )
    return result


def run_load_granularity_ablation(
    ctx: Optional[ExperimentContext] = None,
    benchmark: str = "new_order",
) -> SweepResult:
    """A3': line- vs word-granularity speculative-load tracking.

    The paper tracks loads at line granularity (cheap, but false sharing
    can trigger spurious violations); word granularity is the precise
    alternative.  This quantifies the false-sharing cost.
    """
    ctx = ctx or ExperimentContext()
    granularities = (("line (paper)", True), ("word", False))
    spec = ctx.spec(benchmark, mode=ExecutionMode.BASELINE)
    stats_list = ctx.run(
        SimJob(
            config=MachineConfig().with_tls(line_granularity_loads=gran),
            spec=spec,
        )
        for _label, gran in granularities
    )
    result = SweepResult(
        title=f"A3 — load-tracking granularity ({benchmark})",
        parameter="granularity",
    )
    for (label, _gran), stats in zip(granularities, stats_list):
        result.points.append(
            SweepPoint(
                value=label,
                cycles=stats.total_cycles,
                extra={
                    "violations": stats.primary_violations
                    + stats.secondary_violations,
                },
            )
        )
    return result
