"""Configuration fuzzing: any legal config must simulate any workload.

The machine exposes many independent knobs (sub-thread counts, spacing,
penalties, start tables, prediction policies, L1 tracking, overlap
model, victim-cache size, CPU count).  This suite drives random
combinations against random dependence-heavy workloads and checks the
global invariants: termination, full commit, exact cycle accounting,
drained speculative state, and released latches.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Machine, MachineConfig
from repro.trace.events import (
    EpochTrace,
    ParallelRegion,
    Rec,
    SerialSegment,
    TransactionTrace,
    WorkloadTrace,
)

BASE = 0x1000_0000


@st.composite
def configs(draw):
    n_cpus = draw(st.sampled_from([2, 4, 8]))
    cfg = MachineConfig(
        n_cpus=n_cpus,
        victim_entries=draw(st.sampled_from([0, 2, 64])),
        overlap_loads=draw(st.booleans()),
        l1_subthread_tracking=draw(st.booleans()),
        speculation_enabled=draw(
            st.booleans() if draw(st.booleans()) else st.just(True)
        ),
    )
    return cfg.with_tls(
        max_subthreads=draw(st.sampled_from([1, 2, 8])),
        subthread_spacing=draw(st.sampled_from([25, 250, 10_000])),
        subthread_start_cost=draw(st.sampled_from([0, 40])),
        violation_penalty=draw(st.sampled_from([0, 20, 200])),
        spawn_latency=draw(st.sampled_from([0, 60])),
        start_tables=draw(st.booleans()),
        line_granularity_loads=draw(st.booleans()),
        predictor_subthreads=draw(st.booleans()),
        sync_predicted_loads=draw(st.booleans()),
        value_predict_loads=draw(st.booleans()),
        adaptive_spacing=draw(st.booleans()),
    )


@st.composite
def hot_workloads(draw):
    """Dependence-heavy random workloads on a tiny address pool."""
    n_epochs = draw(st.integers(2, 8))
    epochs = []
    for i in range(n_epochs):
        records = []
        for _ in range(draw(st.integers(1, 10))):
            kind = draw(st.sampled_from(
                ["compute", "load", "store", "latch"]
            ))
            line = BASE + 32 * draw(st.integers(0, 3))
            if kind == "compute":
                records.append(
                    (Rec.COMPUTE, draw(st.integers(1, 1200)))
                )
            elif kind == "load":
                records.append((Rec.LOAD, line, 4, 0x400000))
            elif kind == "store":
                records.append((Rec.STORE, line, 4, 0x400100))
            else:
                latch = draw(st.integers(0, 1))
                records.append((Rec.LATCH_ACQ, latch, 0x400200))
                records.append((Rec.COMPUTE, draw(st.integers(1, 100))))
                records.append((Rec.LATCH_REL, latch))
        epochs.append(EpochTrace(epoch_id=i, records=records))
    segments = [ParallelRegion(epochs=epochs)]
    if draw(st.booleans()):
        segments.append(
            SerialSegment(records=[(Rec.COMPUTE, 100)])
        )
    return WorkloadTrace(
        name="fuzz",
        transactions=[TransactionTrace(name="t", segments=segments)],
    )


class TestConfigFuzz:
    @given(config=configs(), workload=hot_workloads())
    @settings(max_examples=120, deadline=None)
    def test_any_config_simulates_any_workload(self, config, workload):
        machine = Machine(config)
        stats = machine.run(workload)
        # Termination with all work done.
        assert stats.epochs_committed == stats.epochs_total
        # Exact accounting on every CPU.
        for counters in stats.per_cpu:
            assert counters.total() == pytest.approx(
                stats.total_cycles, rel=1e-6, abs=1e-6
            )
        # No residual speculative state or held latches.
        assert machine.l2.speculative_entries() == []
        machine.l2.check_invariants()
        for state in machine.latches._latches.values():
            assert state.holder is None and not state.waiters
        # No lingering sync waiters.
        for waiters in machine._sync_waiters.values():
            assert waiters == []

    @given(config=configs(), workload=hot_workloads())
    @settings(max_examples=40, deadline=None)
    def test_determinism_under_any_config(self, config, workload):
        a = Machine(config).run(workload)
        b = Machine(config).run(workload)
        assert a.total_cycles == b.total_cycles
        assert a.primary_violations == b.primary_violations
        assert a.instructions_retired == b.instructions_retired
