"""What the cyclic garbage collector has to do for the simulator.

Reference counting alone must free a finished :class:`Machine`: the L2
reaches the engine's context directory, not the engine, so the two do
not form a cycle.  Recorded traces and compiled regions are tuples of
tuples, which CPython stops tracking, so full collections do not walk
their records.
"""

from __future__ import annotations

import dataclasses
import gc

import pytest

from repro.sim import ExecutionMode, Machine, MachineConfig
from repro.tpcc import TPCCScale, generate_workload
from repro.trace import load_workload, save_workload
from repro.trace.compile import compile_region
from repro.trace.events import ParallelRegion, WorkloadTrace


@pytest.fixture(scope="module")
def new_order():
    """Tiny NEW ORDER traces: TLS-transformed and sequential."""
    return {
        tls_mode: generate_workload(
            "new_order", tls_mode=tls_mode, n_transactions=3, seed=42,
            scale=TPCCScale.tiny(),
        ).trace
        for tls_mode in (True, False)
    }


def _warm_run_and_drop(mode: str, trace: WorkloadTrace) -> None:
    config = dataclasses.replace(
        MachineConfig.for_mode(mode), check_invariants=True
    )
    machine = Machine(config)
    machine.functional_warm(
        WorkloadTrace(name="warm", transactions=trace.transactions[:1])
    )
    machine.run(WorkloadTrace(name="run", transactions=trace.transactions[1:]))


def test_finished_machine_leaves_no_cyclic_garbage(new_order):
    # The first run performs lazy imports, and creating some of their
    # classes leaves cyclic garbage of its own; keep that out of the
    # measured runs.
    _warm_run_and_drop(ExecutionMode.BASELINE, new_order[True])
    for mode in ExecutionMode.ALL:
        trace = new_order[mode != ExecutionMode.SEQUENTIAL]
        gc.collect()
        gc.disable()
        try:
            _warm_run_and_drop(mode, trace)
            found = gc.collect()
        finally:
            gc.enable()
        assert found == 0, (
            f"{mode}: a dropped Machine left {found} objects that only "
            "the cyclic GC could free"
        )


def _record_containers(trace: WorkloadTrace) -> list:
    out = []
    for txn in trace.transactions:
        for seg in txn.segments:
            if isinstance(seg, ParallelRegion):
                out.extend(epoch.records for epoch in seg.epochs)
            else:
                out.append(seg.records)
    return out


def _assert_untracked_tuples(containers: list) -> None:
    assert containers
    # CPython untracks a tuple once all its items are untracked, and a
    # pass may examine a tuple before the tuples inside it, so that can
    # take one pass per nesting level.  Compiled entries nest deepest:
    # epoch -> line tuple -> line.
    for _ in range(3):
        gc.collect()
    for container in containers:
        assert type(container) is tuple
        assert not gc.is_tracked(container)


def test_generated_records_are_untracked_tuples(new_order):
    _assert_untracked_tuples(_record_containers(new_order[True]))


def test_loaded_records_are_untracked_tuples(new_order, tmp_path):
    path = tmp_path / "trace.json"
    save_workload(new_order[True], path)
    _assert_untracked_tuples(_record_containers(load_workload(path)))


def test_compiled_entries_are_untracked_tuples(new_order):
    region = next(
        seg for txn in new_order[True].transactions
        for seg in txn.segments if isinstance(seg, ParallelRegion)
    )
    compiled = compile_region(region.epochs, Machine(MachineConfig()).l2)
    _assert_untracked_tuples(compiled)
