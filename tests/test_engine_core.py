"""Engine-core selection and compiled/pure identity (repro.sim.engine).

The event loop lives in ``repro.sim.engine_core``; an optional AOT
build provides a generated twin ``engine_core_speed``.  These tests
pin the selection contract — compiled twin preferred, kill switch
forces pure, absence degrades silently — and the byte-identity of a
run regardless of which module drives it, including against the
interpreted path with the kill switch set.
"""

import dataclasses
import sys
import types

import pytest

from repro.sim import ExecutionMode, Machine, MachineConfig, engine_kind
from repro.sim import engine as engine_mod
from repro.sim import engine_core
from repro.sim.engine import KILL_SWITCH, select_engine_core
from repro.tpcc.driver import generate_workload

PC = 0x40_0000


def small_workload():
    return generate_workload("new_order", n_transactions=2, seed=9).trace


def run_stats(wl, mode=ExecutionMode.BASELINE, **overrides):
    config = MachineConfig.for_mode(mode)
    if overrides:
        config = dataclasses.replace(config, **overrides)
    return Machine(config).run(wl)


class TestSelection:
    def test_source_checkout_selects_pure(self):
        # No compiled twin is ever checked in, so a source checkout
        # must resolve to the reference module.
        assert select_engine_core() is engine_core
        assert engine_kind() == "pure"

    def test_kind_of_modules(self):
        assert engine_kind(engine_core) == "pure"
        fake = types.ModuleType("engine_core_speed")
        fake.__file__ = "/x/engine_core_speed.cpython-311.so"
        assert engine_kind(fake) == "compiled"
        bare = types.ModuleType("engine_core_speed")
        assert engine_kind(bare) == "compiled"

    def test_fake_compiled_twin_preferred(self, monkeypatch):
        fake = types.ModuleType("repro.sim.engine_core_speed")
        fake.run_event_loop = engine_core.run_event_loop
        monkeypatch.setitem(
            sys.modules, "repro.sim.engine_core_speed", fake
        )
        monkeypatch.delenv(KILL_SWITCH, raising=False)
        assert select_engine_core() is fake

    def test_kill_switch_overrides_compiled_twin(self, monkeypatch):
        fake = types.ModuleType("repro.sim.engine_core_speed")
        fake.run_event_loop = engine_core.run_event_loop
        monkeypatch.setitem(
            sys.modules, "repro.sim.engine_core_speed", fake
        )
        monkeypatch.setenv(KILL_SWITCH, "1")
        assert select_engine_core() is engine_core

    def test_kill_switch_other_values_ignored(self, monkeypatch):
        fake = types.ModuleType("repro.sim.engine_core_speed")
        fake.run_event_loop = engine_core.run_event_loop
        monkeypatch.setitem(
            sys.modules, "repro.sim.engine_core_speed", fake
        )
        monkeypatch.setenv(KILL_SWITCH, "0")
        assert select_engine_core() is fake

    def test_selection_happens_per_machine(self, monkeypatch):
        fake = types.ModuleType("repro.sim.engine_core_speed")
        fake.run_event_loop = engine_core.run_event_loop
        monkeypatch.setitem(
            sys.modules, "repro.sim.engine_core_speed", fake
        )
        monkeypatch.delenv(KILL_SWITCH, raising=False)
        m1 = Machine(MachineConfig.for_mode(ExecutionMode.BASELINE))
        assert m1._engine_core is fake
        monkeypatch.setenv(KILL_SWITCH, "1")
        m2 = Machine(MachineConfig.for_mode(ExecutionMode.BASELINE))
        assert m2._engine_core is engine_core


class TestIdentity:
    def test_forced_pure_matches_default(self, monkeypatch):
        wl = small_workload()
        monkeypatch.delenv(KILL_SWITCH, raising=False)
        default = run_stats(wl)
        monkeypatch.setenv(KILL_SWITCH, "1")
        forced = run_stats(wl)
        assert default == forced
        assert default.total_cycles == forced.total_cycles

    def test_fake_twin_drives_identical_run(self, monkeypatch):
        # A twin that re-exports the reference loop exercises the
        # dispatch seam end to end and must be indistinguishable.
        wl = small_workload()
        monkeypatch.delenv(KILL_SWITCH, raising=False)
        baseline = run_stats(wl)
        fake = types.ModuleType("repro.sim.engine_core_speed")
        fake.run_event_loop = engine_core.run_event_loop
        monkeypatch.setitem(
            sys.modules, "repro.sim.engine_core_speed", fake
        )
        via_twin = run_stats(wl)
        assert baseline == via_twin

    def test_all_modes_forced_pure(self, monkeypatch):
        wl = small_workload()
        for mode in ExecutionMode.ALL:
            monkeypatch.delenv(KILL_SWITCH, raising=False)
            default = run_stats(wl, mode)
            monkeypatch.setenv(KILL_SWITCH, "1")
            forced = run_stats(wl, mode)
            assert default == forced, mode


class TestDegradedEnvironment:
    """Kill switch set and numpy unimportable: the fully degraded stack
    must still produce a run byte-identical to the default and to the
    interpreted path."""

    def test_kill_switch_and_no_numpy_combined(self, monkeypatch):
        wl = small_workload()
        monkeypatch.delenv(KILL_SWITCH, raising=False)
        full = run_stats(wl)
        monkeypatch.setenv(KILL_SWITCH, "1")
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
        monkeypatch.setenv(KILL_SWITCH, "1")
        monkeypatch.setitem(sys.modules, "numpy", None)
        scalar = run_stats(wl)
        interp = run_stats(wl, compile_traces=False)
        assert full == scalar == interp
        assert full.total_cycles == interp.total_cycles


class TestModuleContract:
    def test_engine_core_has_no_walrus_or_closures(self):
        # The module must stay inside the mypyc-compilable subset the
        # build relies on; a walrus in the hot loop was removed when
        # the loop moved here and must not return.
        import inspect

        src = inspect.getsource(engine_core)
        assert ":=" not in src

    def test_run_event_loop_signature(self):
        import inspect

        params = list(
            inspect.signature(engine_core.run_event_loop).parameters
        )
        assert params == ["machine", "spec_dispatch"]
