"""Whole-machine simulation: configuration, the CMP machine, statistics."""

from .config import ExecutionMode, MachineConfig, table1_text
from .machine import Machine
from .stats import SimulationStats
from .timeline import TimelineEvent, render_timeline, summarize_events

__all__ = [
    "ExecutionMode",
    "MachineConfig",
    "table1_text",
    "Machine",
    "SimulationStats",
    "TimelineEvent",
    "render_timeline",
    "summarize_events",
]
