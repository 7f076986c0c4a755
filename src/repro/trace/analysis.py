"""Static dependence analysis of workload traces.

The paper quantifies its tuning progress as *dependent dynamic loads per
thread*: NEW ORDER went "from 292 dependent loads per thread to 75"
(Section 3.2).  That metric is a property of the trace alone — no timing
simulation needed: a load is *dependent* if its cache line is stored to
by a logically-earlier epoch of the same parallel region (so, depending
on runtime interleaving, it may need the earlier epoch's value).

This module computes that metric, plus where the dependences come from
(per static code site), directly from a :class:`WorkloadTrace`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from .events import ParallelRegion, Rec, WorkloadTrace


@dataclass
class EpochDependences:
    epoch_index: int          # position within its region
    loads: int = 0
    dependent_loads: int = 0
    dependent_lines: int = 0


@dataclass
class DependenceStats:
    """Workload-level dependence summary."""

    epochs: List[EpochDependences] = field(default_factory=list)
    #: (load PC) -> dependent-load count, for "where to look" reports.
    by_load_pc: Dict[int, int] = field(default_factory=dict)
    #: line address -> number of dependent loads it caused.
    by_line: Dict[int, int] = field(default_factory=dict)

    @property
    def total_loads(self) -> int:
        return sum(e.loads for e in self.epochs)

    @property
    def total_dependent_loads(self) -> int:
        return sum(e.dependent_loads for e in self.epochs)

    def dependent_loads_per_epoch(self) -> float:
        """The paper's 'dependent loads per thread' metric."""
        if not self.epochs:
            return 0.0
        return self.total_dependent_loads / len(self.epochs)

    def dependent_fraction(self) -> float:
        if self.total_loads == 0:
            return 0.0
        return self.total_dependent_loads / self.total_loads

    def top_sites(self, n: int = 10) -> List[Tuple[int, int]]:
        """(load PC, count) pairs, most dependent first."""
        return sorted(
            self.by_load_pc.items(), key=lambda kv: kv[1], reverse=True
        )[:n]

    def report(self, pc_names=None, n: int = 8) -> str:
        lines = [
            f"epochs analyzed: {len(self.epochs)}",
            f"dependent loads per thread: "
            f"{self.dependent_loads_per_epoch():.1f}",
            f"dependent fraction of loads: "
            f"{self.dependent_fraction():.1%}",
            "top dependent-load sites:",
        ]
        for pc, count in self.top_sites(n):
            name = pc_names.name(pc) if pc_names else hex(pc)
            lines.append(f"  {count:>6}  {name}")
        return "\n".join(lines)


def dependence_stats(
    workload: WorkloadTrace, line_size: int = 32
) -> DependenceStats:
    """Compute per-epoch dependent-load counts for a workload trace.

    Within each parallel region, epoch *j*'s load of line L is dependent
    iff some epoch *i < j* in the same region stores to L.  (Whether it
    *violates* at runtime depends on timing; this is the static measure
    the paper's per-thread counts correspond to.)
    """
    stats = DependenceStats()
    mask = ~(line_size - 1)
    for txn in workload.transactions:
        for segment in txn.segments:
            if not isinstance(segment, ParallelRegion):
                continue
            # Lines stored by each epoch of the region.
            stores_before: Set[int] = set()
            per_epoch_stores: List[Set[int]] = []
            for epoch in segment.epochs:
                writes: Set[int] = set()
                for rec in epoch.records:
                    if rec[0] == Rec.STORE:
                        first = rec[1] & mask
                        last = (rec[1] + max(rec[2], 1) - 1) & mask
                        line = first
                        while line <= last:
                            writes.add(line)
                            line += line_size
                per_epoch_stores.append(writes)
            for idx, epoch in enumerate(segment.epochs):
                entry = EpochDependences(epoch_index=idx)
                if idx > 0:
                    stores_before |= per_epoch_stores[idx - 1]
                dep_lines: Set[int] = set()
                for rec in epoch.records:
                    if rec[0] != Rec.LOAD:
                        continue
                    entry.loads += 1
                    first = rec[1] & mask
                    last = (rec[1] + max(rec[2], 1) - 1) & mask
                    line = first
                    dependent = False
                    while line <= last:
                        if line in stores_before:
                            dependent = True
                            dep_lines.add(line)
                            stats.by_line[line] = (
                                stats.by_line.get(line, 0) + 1
                            )
                        line += line_size
                    if dependent:
                        entry.dependent_loads += 1
                        pc = rec[3]
                        stats.by_load_pc[pc] = (
                            stats.by_load_pc.get(pc, 0) + 1
                        )
                entry.dependent_lines = len(dep_lines)
                stats.epochs.append(entry)
            stores_before = set()
    return stats
