"""The paper's contribution: TLS with sub-thread checkpointing.

``TLSEngine`` implements the protocol of Sections 2 and 3 — epochs,
hardware thread contexts (one per sub-thread), primary and secondary
violations with sub-thread start tables, homefree-token commit, and the
hardware dependence profiler.
"""

from .accounting import Category, CycleCounters
from .engine import RewindAction, TLSConfig, TLSEngine
from .epoch import EpochExecution, EpochStatus, SubThreadCheckpoint
from .latches import LatchTable
from .prediction import ViolatingLoadPredictor
from .profiling import DependenceProfiler, ExposedLoadTable, ProfiledDependence
from .starttable import SubThreadStartTable

__all__ = [
    "Category",
    "CycleCounters",
    "RewindAction",
    "TLSConfig",
    "TLSEngine",
    "EpochExecution",
    "EpochStatus",
    "SubThreadCheckpoint",
    "LatchTable",
    "ViolatingLoadPredictor",
    "DependenceProfiler",
    "ExposedLoadTable",
    "ProfiledDependence",
    "SubThreadStartTable",
]
