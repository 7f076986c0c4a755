"""Experiment E5 — Figure 2: iterative dependence removal as tuning.

The paper's Figure 2 argues that *without* sub-threads, removing one
data dependence can fail to help (the thread still rewinds entirely for
the next dependence), while *with* sub-threads each removed dependence
buys an incremental improvement — turning parallelization into a
performance-tuning loop.

We reproduce this with the real tuning sequence from the database work:
starting from the unoptimized engine, remove one dependence source per
step (the shared log tail, the buffer-pool LRU stores, the lock-bucket
stores, the pin-count stores) and measure NEW ORDER's 4-CPU execution
time under all-or-nothing TLS and under sub-thread TLS at each step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..minidb import EngineOptions
from ..sim import ExecutionMode, MachineConfig
from .report import render_table
from .runner import ExperimentContext, SimJob

#: The tuning sequence: flags switched off one per step.
TUNING_STEPS = (
    ("unoptimized", None),
    ("- shared log tail", "shared_log_tail"),
    ("- LRU-head stores", "lru_updates"),
    ("- lock-bucket stores", "lock_bucket_stores"),
    ("- pin-count stores", "pin_stores"),
)


@dataclass
class TuningStep:
    label: str
    options: EngineOptions
    all_or_nothing_cycles: float = 0.0
    subthread_cycles: float = 0.0
    all_or_nothing_violations: int = 0
    subthread_violations: int = 0


@dataclass
class Figure2Result:
    benchmark: str
    steps: List[TuningStep] = field(default_factory=list)

    def subthread_monotone_fraction(self) -> float:
        """Fraction of tuning steps that did not hurt sub-thread TLS."""
        improvements = 0
        total = 0
        for prev, cur in zip(self.steps, self.steps[1:]):
            total += 1
            if cur.subthread_cycles <= prev.subthread_cycles * 1.02:
                improvements += 1
        return improvements / max(1, total)

    def render(self) -> str:
        rows = []
        base_aon = self.steps[0].all_or_nothing_cycles
        base_sub = self.steps[0].subthread_cycles
        for step in self.steps:
            rows.append(
                [
                    step.label,
                    step.all_or_nothing_cycles / base_aon,
                    step.subthread_cycles / base_sub,
                    step.all_or_nothing_violations,
                    step.subthread_violations,
                ]
            )
        return render_table(
            [
                "tuning step",
                "all-or-nothing (norm.)",
                "sub-threads (norm.)",
                "AoN viol",
                "sub viol",
            ],
            rows,
            title=(
                f"Figure 2 — dependence-removal tuning ({self.benchmark})"
            ),
        )


def run_figure2(
    ctx: Optional[ExperimentContext] = None,
    benchmark: str = "new_order",
) -> Figure2Result:
    ctx = ctx or ExperimentContext()
    result = Figure2Result(benchmark=benchmark)
    jobs = []
    options = EngineOptions.unoptimized()
    for label, flag in TUNING_STEPS:
        if flag is not None:
            options = options.without(flag)
        result.steps.append(TuningStep(label=label, options=options))
        spec = ctx.spec(benchmark, tls_mode=True, options=options)
        for mode in (ExecutionMode.NO_SUBTHREAD, ExecutionMode.BASELINE):
            jobs.append(
                SimJob(config=MachineConfig.for_mode(mode), spec=spec)
            )
    stats_list = iter(ctx.run(jobs))
    for step in result.steps:
        aon = next(stats_list)
        sub = next(stats_list)
        step.all_or_nothing_cycles = aon.total_cycles
        step.subthread_cycles = sub.total_cycles
        step.all_or_nothing_violations = (
            aon.primary_violations + aon.secondary_violations
        )
        step.subthread_violations = (
            sub.primary_violations + sub.secondary_violations
        )
    return result
