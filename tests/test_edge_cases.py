"""Edge-case and misuse tests across the stack."""

import pytest

from repro.sim import Machine, MachineConfig
from repro.trace import TraceRecorder, TransactionTraceBuilder
from repro.trace.events import (
    EpochTrace,
    ParallelRegion,
    Rec,
    SerialSegment,
    TransactionTrace,
    WorkloadTrace,
)


class TestMachineEdges:
    def test_unknown_record_kind_rejected(self):
        wl = WorkloadTrace(
            name="w",
            transactions=[
                TransactionTrace(
                    name="t",
                    segments=[SerialSegment(records=[(99, 1)])],
                )
            ],
        )
        with pytest.raises(ValueError):
            Machine(MachineConfig()).run(wl)

    def test_unknown_segment_type_rejected(self):
        wl = WorkloadTrace(
            name="w",
            transactions=[
                TransactionTrace(name="t", segments=["not a segment"])
            ],
        )
        with pytest.raises(TypeError):
            Machine(MachineConfig()).run(wl)

    def test_empty_workload(self):
        stats = Machine(MachineConfig()).run(WorkloadTrace(name="w"))
        assert stats.total_cycles == 0
        assert stats.epochs_committed == 0

    def test_single_cpu_machine(self):
        from dataclasses import replace

        recs = [(Rec.COMPUTE, 400)]
        wl = WorkloadTrace(
            name="w",
            transactions=[
                TransactionTrace(
                    name="t",
                    segments=[
                        ParallelRegion(
                            epochs=[
                                EpochTrace(0, list(recs)),
                                EpochTrace(1, list(recs)),
                            ]
                        )
                    ],
                )
            ],
        )
        stats = Machine(replace(MachineConfig(), n_cpus=1)).run(wl)
        assert stats.epochs_committed == 2
        # Serialized on one CPU: at least the sum of both epochs.
        assert stats.total_cycles >= 200

    def test_epoch_with_no_records(self):
        wl = WorkloadTrace(
            name="w",
            transactions=[
                TransactionTrace(
                    name="t",
                    segments=[
                        ParallelRegion(epochs=[EpochTrace(0, [])])
                    ],
                )
            ],
        )
        stats = Machine(MachineConfig()).run(wl)
        assert stats.epochs_committed == 1

    def test_machine_reuse_across_runs_accumulates(self):
        recs = [(Rec.COMPUTE, 400)]
        wl = WorkloadTrace(
            name="w",
            transactions=[
                TransactionTrace(
                    name="t",
                    segments=[SerialSegment(records=list(recs))],
                )
            ],
        )
        machine = Machine(MachineConfig())
        first = machine.run(wl)
        second = machine.run(wl)
        # The machine keeps global time: a second run continues the
        # clock (documented behaviour; use fresh machines per run).
        assert second.total_cycles >= first.total_cycles


class TestBuilderMisuse:
    def test_begin_epoch_outside_region_raises(self):
        rec = TraceRecorder()
        b = TransactionTraceBuilder("t", rec)
        with pytest.raises(RuntimeError):
            b.begin_epoch()

    def test_finish_is_idempotent_enough(self):
        rec = TraceRecorder()
        b = TransactionTraceBuilder("t", rec)
        b.begin_serial()
        rec.compute(5)
        trace = b.finish()
        assert trace.instruction_count == 5


class TestRecorderEdges:
    def test_zero_compute_ignored(self):
        rec = TraceRecorder()
        sink = []
        rec.set_target(sink)
        rec.compute(0)
        rec.tls_overhead(0)
        rec.set_target(None)
        assert sink == []

    def test_op_record(self):
        from repro.trace.events import Op

        rec = TraceRecorder()
        sink = []
        rec.set_target(sink)
        rec.op(Op.INT_DIV, 3)
        rec.set_target(None)
        assert sink == [(Rec.OP, Op.INT_DIV, 3)]
