"""Trace representation and generation.

The simulator is trace-driven: workloads are converted to streams of
compact records (loads, stores, branches, latch operations, batched
compute) by instrumenting the ``repro.minidb`` storage engine, then
replayed by the timing model under different TLS execution modes.
"""

from .addressmap import AddressMap, PCRegistry
from .analysis import DependenceStats, dependence_stats
from .costs import CostModel, default_costs, paper_scale_costs, DEFAULT_SCALE
from .events import (
    EpochTrace,
    Op,
    ParallelRegion,
    Rec,
    Record,
    SerialSegment,
    TransactionTrace,
    WorkloadTrace,
    record_instruction_count,
)
from .recorder import NullRecorder, TraceRecorder, TransactionTraceBuilder
from .serialize import (
    load_workload,
    save_workload,
    workload_from_dict,
    workload_to_dict,
)

__all__ = [
    "AddressMap",
    "PCRegistry",
    "DependenceStats",
    "dependence_stats",
    "CostModel",
    "default_costs",
    "paper_scale_costs",
    "DEFAULT_SCALE",
    "EpochTrace",
    "Op",
    "ParallelRegion",
    "Rec",
    "Record",
    "SerialSegment",
    "TransactionTrace",
    "WorkloadTrace",
    "record_instruction_count",
    "NullRecorder",
    "TraceRecorder",
    "TransactionTraceBuilder",
    "load_workload",
    "save_workload",
    "workload_from_dict",
    "workload_to_dict",
]
