"""Experiment E2 — Figure 6: sweeping sub-thread count and spacing.

For the five TLS-profitable benchmarks, vary the number of sub-thread
contexts per speculative thread (2/4/8, matching the paper) and the
number of speculative instructions between sub-thread start points.
Output: normalized execution time (relative to the benchmark's
SEQUENTIAL run) for every (count, spacing) cell — the paper's 6(a)-(e)
grids.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..sim import ExecutionMode, MachineConfig
from ..tpcc import DISPLAY_NAMES
from .report import render_table
from .runner import ExperimentContext, SimJob

#: Benchmarks shown in Figure 6 (the TLS-profitable five).
FIGURE6_BENCHMARKS = (
    "new_order",
    "new_order_150",
    "delivery",
    "delivery_outer",
    "stock_level",
)

#: Paper: 2, 4, 8 sub-threads per thread.
SUBTHREAD_COUNTS = (2, 4, 8)

#: Spacing sweep, scaled analog of the paper's instruction distances.
SPACINGS = (125, 250, 500, 1000)


@dataclass
class Figure6Cell:
    benchmark: str
    subthreads: int
    spacing: int
    normalized: float
    failed_fraction: float
    primary_violations: int


@dataclass
class Figure6Result:
    cells: List[Figure6Cell] = field(default_factory=list)
    sequential_cycles: Dict[str, float] = field(default_factory=dict)

    def cell(self, benchmark: str, subthreads: int, spacing: int
             ) -> Figure6Cell:
        for c in self.cells:
            if (
                c.benchmark == benchmark
                and c.subthreads == subthreads
                and c.spacing == spacing
            ):
                return c
        raise KeyError((benchmark, subthreads, spacing))

    def best_cell(self, benchmark: str) -> Figure6Cell:
        return min(
            (c for c in self.cells if c.benchmark == benchmark),
            key=lambda c: c.normalized,
        )

    def render(self) -> str:
        sections = []
        spacings = sorted({c.spacing for c in self.cells})
        counts = sorted({c.subthreads for c in self.cells})
        for benchmark in dict.fromkeys(c.benchmark for c in self.cells):
            rows = []
            for count in counts:
                row = [f"{count} sub-threads"]
                for spacing in spacings:
                    try:
                        row.append(self.cell(benchmark, count, spacing)
                                   .normalized)
                    except KeyError:
                        row.append("-")
                rows.append(row)
            sections.append(
                render_table(
                    ["(norm. time)"] + [f"every {s}" for s in spacings],
                    rows,
                    title=f"Figure 6 — {DISPLAY_NAMES[benchmark]}",
                )
            )
            sections.append("")
        return "\n".join(sections)


def run_figure6_paper_size(
    ctx: Optional[ExperimentContext] = None,
    benchmark: str = "new_order",
    spacings=(250, 1000, 6250, 25000),
) -> Figure6Result:
    """Figure 6 at *paper-sized* threads (costs scale 1.0, ~50k-instr
    epochs for NEW ORDER); the default context runs 3 transactions.

    At these sizes the paper's observation bites hard: the scaled-down
    default spacing covers only a sliver of each thread, so sub-threads
    barely beat all-or-nothing, while a spacing near thread-size/8
    (the analog of the paper's 5,000-instruction choice) restores the
    benefit.
    """
    ctx = ctx or ExperimentContext(n_transactions=3)
    benchmarks, counts = (benchmark,), (2, 8)
    jobs = [
        dataclasses.replace(
            job, spec=dataclasses.replace(job.spec, cost_scale=1.0)
        )
        for job in figure6_jobs(ctx, benchmarks, counts, spacings)
    ]
    return _figure6_result(ctx.run(jobs), benchmarks, counts, spacings)


def figure6_jobs(
    ctx: ExperimentContext,
    benchmarks: Tuple[str, ...] = FIGURE6_BENCHMARKS,
    counts: Tuple[int, ...] = SUBTHREAD_COUNTS,
    spacings: Tuple[int, ...] = SPACINGS,
) -> List[SimJob]:
    """The full Figure 6 job list: per benchmark, one SEQUENTIAL
    baseline followed by every (count, spacing) TLS cell in grid order.
    Shared by the sweep driver and the end-to-end benchmark's worker,
    which times the same grid.
    """
    jobs = []
    for benchmark in benchmarks:
        jobs.append(SimJob(
            config=MachineConfig.for_mode(ExecutionMode.SEQUENTIAL),
            spec=ctx.spec(benchmark, mode=ExecutionMode.SEQUENTIAL),
        ))
        tls_spec = ctx.spec(benchmark, mode=ExecutionMode.BASELINE)
        for count in counts:
            for spacing in spacings:
                jobs.append(SimJob(
                    config=MachineConfig().with_tls(
                        max_subthreads=count, subthread_spacing=spacing
                    ),
                    spec=tls_spec,
                ))
    return jobs


def run_figure6(
    ctx: Optional[ExperimentContext] = None,
    benchmarks: Tuple[str, ...] = FIGURE6_BENCHMARKS,
    counts: Tuple[int, ...] = SUBTHREAD_COUNTS,
    spacings: Tuple[int, ...] = SPACINGS,
) -> Figure6Result:
    ctx = ctx or ExperimentContext()
    jobs = figure6_jobs(ctx, benchmarks, counts, spacings)
    return _figure6_result(ctx.run(jobs), benchmarks, counts, spacings)


def _figure6_result(stats_list, benchmarks, counts, spacings
                    ) -> Figure6Result:
    """Assemble the grid from stats in :func:`figure6_jobs` order."""
    stats_list = iter(stats_list)
    result = Figure6Result()
    for benchmark in benchmarks:
        seq = next(stats_list)
        result.sequential_cycles[benchmark] = seq.total_cycles
        for count in counts:
            for spacing in spacings:
                stats = next(stats_list)
                result.cells.append(
                    Figure6Cell(
                        benchmark=benchmark,
                        subthreads=count,
                        spacing=spacing,
                        normalized=stats.total_cycles / seq.total_cycles,
                        failed_fraction=stats.breakdown_fractions()[
                            "failed"
                        ],
                        primary_violations=stats.primary_violations,
                    )
                )
    return result
