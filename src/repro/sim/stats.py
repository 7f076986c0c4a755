"""Simulation statistics: per-CPU cycle breakdowns and protocol counters.

``SimulationStats`` is the result object a :class:`~repro.sim.machine.
Machine` run produces.  Its cycle breakdown mirrors Figure 5: total
execution cycles split into Busy / Cache miss / Synchronization (latch
stall) / TLS overhead / Failed / Idle, summed over the CPUs so that a
4-CPU run of *T* cycles accounts for *4T* CPU-cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..core.accounting import Category, CycleCounters

#: Declarative counter-name -> stats-field mapping.  ``Machine.metrics``
#: reports every subsystem counter under exactly the dotted names on the
#: left; ``apply_metrics`` fills the dataclass field on the right from
#: that dict.  Adding a counter means adding one row here and one entry
#: there; a name missing on either side fails ``apply_metrics``.
METRIC_SOURCES: Dict[str, str] = {
    "engine.primary_violations": "primary_violations",
    "engine.secondary_violations": "secondary_violations",
    "engine.secondary_rewinds_avoided": "secondary_rewinds_avoided",
    "engine.subthreads_started": "subthreads_started",
    "engine.epochs_committed": "epochs_committed",
    "engine.epochs_total": "epochs_total",
    "engine.load_predictor_entries": "load_predictor_entries",
    "machine.deadlock_breaks": "deadlock_breaks",
    "machine.branch_mispredictions": "branch_mispredictions",
    "machine.instructions_retired": "instructions_retired",
    "l1.hits": "l1_hits",
    "l1.misses": "l1_misses",
    "l1.spec_invalidations": "l1_spec_invalidations",
    "l2.hits": "l2_hits",
    "l2.misses": "l2_misses",
    "l2.victim_spills": "victim_spills",
    "l2.overflow_squashes": "overflow_squashes",
    "compile.batched_records": "compiled_batched_records",
    "compile.fastpath_loads": "compiled_fastpath_loads",
    "compile.fastpath_stores": "compiled_fastpath_stores",
    "compile.private_line_stores": "private_line_stores",
    "compile.region_cache_reuses": "compiled_region_cache_reuses",
}


@dataclass
class SimulationStats:
    """Aggregated results of one simulation run."""

    n_cpus: int = 1
    total_cycles: float = 0.0
    per_cpu: List[CycleCounters] = field(default_factory=list)
    # Protocol counters (copied from the engine/L2 at the end of a run).
    primary_violations: int = 0
    secondary_violations: int = 0
    secondary_rewinds_avoided: int = 0
    subthreads_started: int = 0
    epochs_committed: int = 0
    l2_hits: int = 0
    l2_misses: int = 0
    l1_hits: int = 0
    l1_misses: int = 0
    l1_spec_invalidations: int = 0
    #: PCs resident in the violating-load predictor at end of run.
    load_predictor_entries: int = 0
    victim_spills: int = 0
    overflow_squashes: int = 0
    branch_mispredictions: int = 0
    instructions_retired: int = 0
    epochs_total: int = 0
    #: Times the machine's deadlock safety net had to force a rewind.
    deadlock_breaks: int = 0
    # Trace-compilation telemetry (repro.trace.compile).  compare=False:
    # these describe *how* the run executed, not what it computed, so a
    # compiled and an interpreted run of the same workload still compare
    # equal on every architectural statistic.
    #: Records executed via coalesced super-records.
    compiled_batched_records: int = field(default=0, compare=False)
    #: Loads / stores dispatched through the precompiled line tuples.
    compiled_fastpath_loads: int = field(default=0, compare=False)
    compiled_fastpath_stores: int = field(default=0, compare=False)
    #: Fast-path stores to region-private lines (violation scan skipped).
    private_line_stores: int = field(default=0, compare=False)
    #: Regions whose lowered entry lists were served from the cache on
    #: their trace segment instead of being lowered again.
    compiled_region_cache_reuses: int = field(default=0, compare=False)
    #: Hottest profiled (load PC, store PC, failed cycles, violations)
    #: tuples, worst first.  Run telemetry for the observability report;
    #: compare=False so architectural-equality checks stay unaffected.
    dependence_pairs: List[Tuple] = field(
        default_factory=list, compare=False
    )

    METRIC_SOURCES = METRIC_SOURCES

    def apply_metrics(self, metrics: Dict[str, float]) -> None:
        """Fill counter fields from ``Machine.metrics()``."""
        for metric, attr in METRIC_SOURCES.items():
            setattr(self, attr, metrics[metric])

    def counters(self) -> Dict[str, float]:
        """Every counter under its dotted name, plus the Figure-5
        cycle breakdown (``cycles.<category>``) and run shape — the
        payload the span tracer emits as one ``counter`` record per
        job."""
        values: Dict[str, float] = {
            metric: getattr(self, attr)
            for metric, attr in METRIC_SOURCES.items()
        }
        values["machine.n_cpus"] = self.n_cpus
        values["machine.total_cycles"] = self.total_cycles
        summed = self.breakdown()
        for category in Category.ALL:
            values[f"cycles.{category}"] = summed.get(category)
        return values

    def finalize_idle(self) -> None:
        """Attribute every unaccounted CPU-cycle to Idle."""
        for counters in self.per_cpu:
            attributed = sum(
                counters.get(c) for c in Category.ALL if c != Category.IDLE
            )
            idle = self.total_cycles - attributed
            counters.cycles[Category.IDLE] = max(0.0, idle)

    def breakdown(self) -> CycleCounters:
        """Per-category cycles summed over all CPUs."""
        return CycleCounters.sum_of(self.per_cpu)

    def breakdown_fractions(self) -> Dict[str, float]:
        """Per-category fraction of total CPU-cycles (sums to ~1)."""
        total = self.n_cpus * self.total_cycles
        if total == 0:
            return {c: 0.0 for c in Category.ALL}
        summed = self.breakdown()
        return {c: summed.get(c) / total for c in Category.ALL}

    def speedup_over(self, baseline: "SimulationStats") -> float:
        """Wall-clock speedup of this run relative to ``baseline``."""
        if self.total_cycles == 0:
            return float("inf")
        return baseline.total_cycles / self.total_cycles

    def summary(self, label: str = "") -> str:
        frac = self.breakdown_fractions()
        parts = [
            f"{label:<16}" if label else "",
            f"cycles={self.total_cycles:>12.0f}",
            f"busy={frac[Category.BUSY]:.2f}",
            f"miss={frac[Category.MISS]:.2f}",
            f"sync={frac[Category.SYNC]:.2f}",
            f"ovhd={frac[Category.OVERHEAD]:.2f}",
            f"failed={frac[Category.FAILED]:.2f}",
            f"idle={frac[Category.IDLE]:.2f}",
            f"viol={self.primary_violations}+{self.secondary_violations}",
        ]
        return "  ".join(p for p in parts if p)
