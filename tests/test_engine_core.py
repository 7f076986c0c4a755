"""The event loop (repro.sim.engine_core) in a degraded environment.

One loop runs both compiled regions and interpreted replay (no compiled
entries, no chaining).  These tests pin that a run needs nothing outside
the standard library (numpy unimportable) and stays byte-identical to
the default run and to interpreted replay.
"""

import dataclasses
import sys

from repro.sim import ExecutionMode, Machine, MachineConfig
from repro.sim import engine_core
from repro.tpcc.driver import generate_workload


def small_workload():
    return generate_workload("new_order", n_transactions=2, seed=9).trace


def run_stats(wl, mode=ExecutionMode.BASELINE, **overrides):
    config = MachineConfig.for_mode(mode)
    if overrides:
        config = dataclasses.replace(config, **overrides)
    return Machine(config).run(wl)


class TestDegradedEnvironment:
    """numpy unimportable: the run must still be byte-identical to the
    default and to the interpreted path."""

    def test_kill_switch_and_no_numpy_combined(self, monkeypatch):
        wl = small_workload()
        full = run_stats(wl)
        # A None entry makes any ``import numpy`` raise ImportError, so
        # a hidden numpy dependency would fail or diverge here.
        monkeypatch.setitem(sys.modules, "numpy", None)
        degraded = run_stats(wl)
        assert full == degraded
        assert full.total_cycles == degraded.total_cycles

    def test_degraded_plus_columnar_off(self, monkeypatch):
        # The columnar bulk kernels are gone: the scalar reference path
        # is the only one, with no config switch left to turn it off.
        fields = {f.name for f in dataclasses.fields(MachineConfig)}
        assert "columnar" not in fields
        assert "columnar_stores" not in fields
        wl = small_workload()
        full = run_stats(wl)
        monkeypatch.setitem(sys.modules, "numpy", None)
        scalar = run_stats(wl)
        interp = run_stats(wl, compile_traces=False)
        assert full == scalar == interp
        assert full.total_cycles == interp.total_cycles


class TestModuleContract:
    def test_run_event_loop_signature(self):
        import inspect

        params = list(
            inspect.signature(engine_core.run_event_loop).parameters
        )
        assert params == ["machine"]
