"""Machine deadlock safety net (``Machine._break_deadlock``).

The trace generator's latch-ordering discipline makes latch deadlock
unreachable on real workloads (the linter proves it per trace), but the
machine still carries a safety net: when every CPU is blocked with no
pending events, it force-rewinds a speculative latch *holder* so waiters
can progress.  These tests drive that path with a deliberately
undisciplined trace and assert forward progress plus accounting.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.sim import ExecutionMode, Machine, MachineConfig
from repro.trace.events import (
    EpochTrace,
    ParallelRegion,
    Rec,
    TransactionTrace,
    WorkloadTrace,
)
from repro.verify import lint_workload

PC = 0x0040_0000

REPO = Path(__file__).resolve().parent.parent

#: A shrunk high-violation fuzz draw (written by
#: ``repro.verify.fuzz.write_repro``) whose oldest epoch waits on a
#: latch held by an epoch blocked on a synchronized load, while the
#: other epochs thrash on overflow squashes.
OVERFLOW_PARKED_REPRO = (
    REPO / "tests" / "repros" / "overflow_parked_livelock.json"
)


def _cross_latch_workload() -> WorkloadTrace:
    """Epoch 0 takes A then B; epoch 1 takes B then A — the classic
    cross-order deadlock the lint forbids and the machine must survive."""
    def critical(first, second):
        return [
            (Rec.LATCH_ACQ, first, PC),
            (Rec.COMPUTE, 50),
            (Rec.LATCH_ACQ, second, PC),
            (Rec.COMPUTE, 20),
            (Rec.LATCH_REL, second),
            (Rec.LATCH_REL, first),
        ]

    return WorkloadTrace(name="deadlock", transactions=[TransactionTrace(
        name="t",
        segments=[ParallelRegion(epochs=[
            EpochTrace(epoch_id=0, records=critical(1, 2)),
            EpochTrace(epoch_id=1, records=critical(2, 1)),
        ])],
    )])


@pytest.fixture(scope="module")
def workload():
    return _cross_latch_workload()


def test_lint_rejects_the_crafted_trace(workload):
    messages = [i.message for i in lint_workload(workload).issues]
    assert any("waits-for cycle" in m for m in messages)


def test_livelock_is_broken_and_counted(workload):
    config = MachineConfig.for_mode(
        ExecutionMode.BASELINE
    ).with_tls(spawn_latency=0)
    machine = Machine(config)
    stats = machine.run(workload)

    # Forward progress: the run terminated and committed everything.
    assert stats.epochs_committed == stats.epochs_total == 2
    assert stats.deadlock_breaks >= 1
    # The break rewound a speculative holder; all latches drained.
    for state in machine.latches._latches.values():
        assert state.holder is None and not state.waiters
    assert machine.l2.speculative_entries() == []


def test_disciplined_traces_never_need_the_net(tiny_new_order):
    stats = Machine(
        MachineConfig.for_mode(ExecutionMode.BASELINE)
    ).run(tiny_new_order.trace)
    assert stats.deadlock_breaks == 0


def test_stat_survives_collection(workload):
    """deadlock_breaks is a first-class stat (reaches exports)."""
    config = MachineConfig.for_mode(
        ExecutionMode.BASELINE
    ).with_tls(spawn_latency=0)
    stats = Machine(config).run(workload)
    assert hasattr(stats, "deadlock_breaks")
    assert stats.deadlock_breaks >= 1


def test_overflow_parked_epochs_do_not_livelock_the_breaker():
    """Waking overflow-parked epochs must not starve the other steps.

    The breaker used to wake parked epochs first; they overflowed again
    at the same commit horizon and re-parked, so it never reached the
    synchronized-load release that unblocks the oldest epoch.  The
    replay runs in a subprocess with a timeout so a regression fails
    instead of hanging the suite.
    """
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "repro.verify.fuzz",
             "--repro", str(OVERFLOW_PARKED_REPRO)],
            env=env, cwd=REPO, capture_output=True, text=True,
            timeout=60,
        )
    except subprocess.TimeoutExpired:
        pytest.fail("repro run did not finish: deadlock-breaker livelock")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "PASS" in proc.stdout
