"""Experiment E6 — Figure 4: selective secondary violations.

A controlled microbenchmark reproducing the paper's Figure 4 scenario:
four speculative threads; thread 1 stores to a location thread 2 read in
its second sub-thread (2b).  Threads 3 and 4 read *nothing* from thread
2, but under basic secondary-violation handling they must restart anyway.

* Without sub-thread start tables (Figure 4(a)): the secondary violation
  restarts threads 3 and 4 completely.
* With start tables (Figure 4(b)): threads 3 and 4 rewind only to the
  sub-thread they were executing when 2b began — their first sub-threads'
  work survives.

The experiment measures failed cycles in both configurations; the start-
table run must waste strictly less.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..sim import MachineConfig
from ..trace.events import (
    EpochTrace,
    ParallelRegion,
    Rec,
    TransactionTrace,
    WorkloadTrace,
)
from .runner import ExperimentContext, SimJob

#: Addresses used by the microbenchmark.
ADDR_X = 0x1000_0000  # the violated location
PC_STORE = 0x40_0000
PC_LOAD = 0x40_0100


def _epoch(epoch_id: int, records: List) -> EpochTrace:
    return EpochTrace(epoch_id=epoch_id, records=records)


def figure4_workload(work: int = 2000) -> WorkloadTrace:
    """Four epochs; epoch 1 (logical 2nd) reads X late, epoch 0 writes X
    even later; epochs 2 and 3 are independent."""
    epochs = [
        # Thread 1: long compute, then the conflicting store.
        _epoch(0, [
            (Rec.COMPUTE, 3 * work),
            (Rec.STORE, ADDR_X, 4, PC_STORE),
            (Rec.COMPUTE, work // 4),
        ]),
        # Thread 2: sub-thread 2a is pure compute; 2b loads X.
        _epoch(1, [
            (Rec.COMPUTE, work),
            (Rec.LOAD, ADDR_X, 4, PC_LOAD),
            (Rec.COMPUTE, 2 * work),
        ]),
        # Threads 3 and 4: independent compute (nothing shared).
        _epoch(2, [(Rec.COMPUTE, 3 * work)]),
        _epoch(3, [(Rec.COMPUTE, 3 * work)]),
    ]
    region = ParallelRegion(epochs=epochs)
    txn = TransactionTrace(name="figure4", segments=[region])
    return WorkloadTrace(name="figure4", transactions=[txn])


@dataclass
class Figure4Result:
    with_tables_cycles: float
    without_tables_cycles: float
    with_tables_failed: float
    without_tables_failed: float
    with_tables_secondary: int
    without_tables_secondary: int

    @property
    def failed_cycles_saved(self) -> float:
        return self.without_tables_failed - self.with_tables_failed

    def render(self) -> str:
        lines = [
            "Figure 4 — secondary violations with/without start tables",
            "=========================================================",
            f"{'':<28}{'cycles':>10}{'failed':>10}{'secondary':>10}",
            (
                f"{'without start tables (4a)':<28}"
                f"{self.without_tables_cycles:>10.0f}"
                f"{self.without_tables_failed:>10.0f}"
                f"{self.without_tables_secondary:>10}"
            ),
            (
                f"{'with start tables (4b)':<28}"
                f"{self.with_tables_cycles:>10.0f}"
                f"{self.with_tables_failed:>10.0f}"
                f"{self.with_tables_secondary:>10}"
            ),
            f"failed cycles saved: {self.failed_cycles_saved:.0f}",
        ]
        return "\n".join(lines)


def run_figure4(
    ctx: Optional[ExperimentContext] = None,
    work: int = 2000,
    spacing: int = 250,
) -> Figure4Result:
    ctx = ctx or ExperimentContext()
    workload = figure4_workload(work=work)
    without_stats, with_stats = ctx.run(
        SimJob(
            config=MachineConfig().with_tls(
                start_tables=start_tables,
                subthread_spacing=spacing,
                max_subthreads=8,
            ),
            trace=workload,
        )
        for start_tables in (False, True)
    )
    with_failed = sum(c.get("failed") for c in with_stats.per_cpu)
    without_failed = sum(c.get("failed") for c in without_stats.per_cpu)
    return Figure4Result(
        with_tables_cycles=with_stats.total_cycles,
        without_tables_cycles=without_stats.total_cycles,
        with_tables_failed=with_failed,
        without_tables_failed=without_failed,
        with_tables_secondary=with_stats.secondary_violations,
        without_tables_secondary=without_stats.secondary_violations,
    )
