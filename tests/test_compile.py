"""Trace pre-compilation (repro.trace.compile).

Two halves: unit tests of the lowering pass itself (batch costs,
per-line memory tuples, region-private line classification), and
byte-identity tests asserting that a simulation with compiled traces
produces exactly the same statistics, figure exports, and golden cycle
counts as the fully-interpreted path.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from repro.cpu.pipeline import CorePipeline, PipelineConfig
from repro.harness.export import result_to_dict
from repro.harness.figure5 import run_figure5
from repro.harness.figure6 import run_figure6
from repro.harness.runner import ExperimentContext, JobRunner
from repro.harness.tracecache import materialize
from repro.sim import ExecutionMode, Machine, MachineConfig
from repro.tpcc import TPCCScale
from repro.trace.compile import (
    BATCH,
    MEM,
    classify_lines,
    compile_region,
)
from repro.trace.events import EpochTrace, Op, Rec, SerialSegment

GOLDEN = Path(__file__).parent / "golden" / "figure5_tiny.json"


def _l2():
    return Machine(MachineConfig()).l2


def _epoch(records):
    return EpochTrace(epoch_id=0, records=list(records))


# ----------------------------------------------------------------------
# Super-record batches
# ----------------------------------------------------------------------


class TestBatches:
    def test_batch_cost_matches_pipeline_model(self):
        records = [
            (Rec.COMPUTE, 13),
            (Rec.OP, Op.INT_MUL, 3),
            (Rec.COMPUTE, 1),
            (Rec.OP, Op.FP, 2),
            (Rec.COMPUTE, 4),
        ]
        comp = compile_region([_epoch(records)], _l2(), PipelineConfig())
        entries = comp.epochs[0]
        kind, end, busy, overhead, instrs, branches = entries[0][:6]
        assert kind == BATCH
        assert end == len(records)
        assert list(entries[1:]) == [None] * (len(records) - 1)
        # The pre-summed static cost must equal dispatching every record
        # through CorePipeline one at a time (same per-record rounding).
        pipeline = CorePipeline(PipelineConfig())
        want = (
            pipeline.compute_cycles(13)
            + pipeline.op_cycles(Op.INT_MUL, 3)
            + pipeline.compute_cycles(1)
            + pipeline.op_cycles(Op.FP, 2)
            + pipeline.compute_cycles(4)
        )
        assert busy == want
        assert overhead == 0
        assert instrs == pipeline.instructions_retired
        assert branches == ()

    def test_tls_overhead_summed_separately(self):
        records = [(Rec.COMPUTE, 8), (Rec.TLS_OVERHEAD, 5)]
        comp = compile_region([_epoch(records)], _l2(), PipelineConfig())
        _, _, busy, overhead, instrs, _ = comp.epochs[0][0][:6]
        pipeline = CorePipeline(PipelineConfig())
        assert busy == pipeline.compute_cycles(8)
        assert overhead == pipeline.compute_cycles(5)
        assert instrs == 13

    def test_branch_outcomes_stay_dynamic(self):
        """A batch charges 1 base cycle per branch and carries the
        (pc, taken) list; the misprediction penalty is applied at
        dispatch time because the GShare predictor is stateful."""
        records = [
            (Rec.COMPUTE, 4),
            (Rec.BRANCH, 0x400010, True),
            (Rec.BRANCH, 0x400020, False),
        ]
        comp = compile_region([_epoch(records)], _l2(), PipelineConfig())
        _, end, busy, _, instrs, branches = comp.epochs[0][0][:6]
        assert end == 3
        assert busy == 1 + 2  # 4 instrs / width 4, plus 1 per branch
        assert instrs == 6
        assert branches == ((0x400010, True), (0x400020, False))

    def test_single_records_are_not_batched(self):
        records = [(Rec.COMPUTE, 4), (Rec.LOAD, 0x1000, 4, 0x400000)]
        comp = compile_region([_epoch(records)], _l2(), PipelineConfig())
        assert comp.epochs[0][0] is None  # run of one: interpret it
        assert comp.epochs[0][1][0] == MEM

    def test_batches_suppressed_when_disabled(self):
        records = [(Rec.COMPUTE, 4), (Rec.COMPUTE, 4), (Rec.COMPUTE, 4)]
        comp = compile_region(
            [_epoch(records)], _l2(), PipelineConfig(), batches=False
        )
        assert list(comp.epochs[0]) == [None, None, None]


# ----------------------------------------------------------------------
# Memory lowering and line classification
# ----------------------------------------------------------------------


class TestMemoryLowering:
    def test_line_tuple_matches_geometry(self):
        l2 = _l2()
        line_size = l2.geom.line_size
        addr = 3 * line_size + (line_size - 4)  # spans two lines
        records = [(Rec.LOAD, addr, 8, 0x400000)]
        comp = compile_region([_epoch(records)], l2, PipelineConfig())
        kind, lines = comp.epochs[0][0]
        assert kind == MEM
        assert [ln for ln, *_ in lines] == list(
            l2.geom.lines_touched(addr, 8)
        )
        (l0, sub0, mask0, _, _), (l1, sub1, mask1, _, _) = lines
        assert sub0 == addr and sub1 == l1
        assert mask0 == l2.word_mask(addr, l0 + line_size - addr)
        assert mask1 == l2.word_mask(l1, addr + 8 - l1)

    def test_load_bits_follow_granularity(self):
        l2 = _l2()
        records = [(Rec.LOAD, 0x1000, 4, 0x400000)]
        comp = compile_region([_epoch(records)], l2, PipelineConfig())
        _, lines = comp.epochs[0][0]
        _, _, wmask, load_bits, _ = lines[0]
        if l2.line_granularity_loads:
            assert load_bits == l2._full_line_mask
        else:
            assert load_bits == wmask

    def test_line_tuples_interned_across_epochs(self):
        records = [(Rec.LOAD, 0x1000, 4, 0x400000)]
        a = EpochTrace(epoch_id=0, records=list(records))
        b = EpochTrace(epoch_id=1, records=list(records))
        comp = compile_region([a, b], _l2(), PipelineConfig())
        assert comp.epochs[0][0][1] is comp.epochs[1][0][1]

    def test_private_vs_shared_classification(self):
        l2 = _l2()
        line_size = l2.geom.line_size
        shared, private_a, private_b = 0, 4 * line_size, 8 * line_size
        a = EpochTrace(epoch_id=0, records=[
            (Rec.LOAD, shared, 4, 0x400000),
            (Rec.STORE, private_a, 4, 0x400010),
        ])
        b = EpochTrace(epoch_id=1, records=[
            (Rec.STORE, shared, 4, 0x400020),
            (Rec.LOAD, private_b, 4, 0x400030),
        ])
        owner = classify_lines([a, b], l2.geom)
        assert owner[shared] == -1
        assert owner[private_a] == 0
        assert owner[private_b] == 1
        comp = compile_region([a, b], l2, PipelineConfig())
        assert comp.shared_lines == 1
        assert comp.private_lines == 2
        for entries, addr in ((comp.epochs[0], private_a),
                              (comp.epochs[1], private_b)):
            flags = {line: private for entry in entries if entry
                     for line, _, _, _, private in entry[1]}
            assert flags[shared] is False
            assert flags[addr] is True

    def test_serial_segment_lines_all_private(self):
        records = [(Rec.STORE, 0x1000, 4, 0x400000),
                   (Rec.LOAD, 0x2000, 4, 0x400010)]
        comp = compile_region([_epoch(records)], _l2(), PipelineConfig())
        assert comp.shared_lines == 0
        assert comp.private_lines == 2


# ----------------------------------------------------------------------
# The compiled-region cache on trace segments
# ----------------------------------------------------------------------


class TestRegionCache:
    def test_second_machine_reuses_the_segment_cache(self, monkeypatch):
        """Compiled regions live on the trace's segments: a second
        Machine replaying the same trace object reuses every region and
        lowers none."""
        ctx = ExperimentContext(
            n_transactions=2, seed=42, scale=TPCCScale.tiny()
        )
        trace = materialize(ctx.spec("new_order", mode=ExecutionMode.BASELINE))
        config = MachineConfig.for_mode(ExecutionMode.BASELINE)
        first = Machine(config).run(trace)

        compiles = []

        def counting_compile(*args, **kwargs):
            compiles.append(args)
            return compile_region(*args, **kwargs)

        monkeypatch.setattr(
            "repro.sim.machine.compile_region", counting_compile
        )
        second = Machine(config).run(trace)
        segments_run = sum(
            1
            for txn in trace.transactions
            for seg in txn.segments
            if isinstance(seg, SerialSegment) or seg.epochs
        )
        assert segments_run > 0
        assert first.counters()["compile.region_cache_reuses"] == 0
        assert (
            second.counters()["compile.region_cache_reuses"] == segments_run
        )
        assert compiles == []
        assert second == first


# ----------------------------------------------------------------------
# Byte-identity of the compiled fast path
# ----------------------------------------------------------------------


def _tiny_ctx(compile_traces: bool = True) -> ExperimentContext:
    overrides = None if compile_traces else {"compile_traces": False}
    return ExperimentContext(
        n_transactions=2, seed=42, scale=TPCCScale.tiny(),
        runner=JobRunner(config_overrides=overrides),
    )


class TestCompiledInterpretedIdentity:
    @pytest.mark.parametrize("mode", ExecutionMode.ALL)
    def test_stats_identical_every_mode(self, mode):
        ctx = ExperimentContext(
            n_transactions=2, seed=42, scale=TPCCScale.tiny()
        )
        trace = materialize(ctx.spec("new_order", mode=mode))
        config = MachineConfig.for_mode(mode)
        compiled = Machine(config).run(trace)
        interpreted = Machine(
            dataclasses.replace(config, compile_traces=False)
        ).run(trace)
        # SimulationStats.__eq__ excludes the compile-telemetry
        # counters, which are the only fields allowed to differ.
        assert compiled == interpreted
        assert compiled.total_cycles == interpreted.total_cycles

    @pytest.mark.parametrize("mode", ExecutionMode.ALL)
    def test_stats_identical_every_mode_overlap_loads(self, mode):
        """The chained loop's overlap-loads arm (MSHR list, ROB-window
        stall, batching suppressed) matches the interpreted path."""
        ctx = ExperimentContext(
            n_transactions=2, seed=42, scale=TPCCScale.tiny()
        )
        trace = materialize(ctx.spec("new_order", mode=mode))
        config = dataclasses.replace(
            MachineConfig.for_mode(mode), overlap_loads=True
        )
        compiled = Machine(config).run(trace)
        interpreted = Machine(
            dataclasses.replace(config, compile_traces=False)
        ).run(trace)
        assert compiled.compiled_fastpath_loads > 0
        assert compiled.compiled_batched_records == 0
        assert compiled == interpreted
        assert compiled.total_cycles == interpreted.total_cycles

    def test_compiled_path_actually_taken(self):
        ctx = ExperimentContext(
            n_transactions=2, seed=42, scale=TPCCScale.tiny()
        )
        trace = materialize(ctx.spec("new_order", mode=ExecutionMode.BASELINE))
        stats = Machine(
            MachineConfig.for_mode(ExecutionMode.BASELINE)
        ).run(trace)
        assert stats.compiled_fastpath_loads > 0
        assert stats.compiled_fastpath_stores > 0
        assert stats.compiled_batched_records > 0
        assert stats.private_line_stores > 0

    def test_figure5_export_byte_identical(self):
        on = run_figure5(_tiny_ctx(True), benchmarks=["new_order"])
        off = run_figure5(_tiny_ctx(False), benchmarks=["new_order"])
        assert (
            json.dumps(result_to_dict(on), sort_keys=True)
            == json.dumps(result_to_dict(off), sort_keys=True)
        )

    def test_figure6_export_byte_identical(self):
        on = run_figure6(_tiny_ctx(True), benchmarks=["new_order"])
        off = run_figure6(_tiny_ctx(False), benchmarks=["new_order"])
        assert (
            json.dumps(result_to_dict(on), sort_keys=True)
            == json.dumps(result_to_dict(off), sort_keys=True)
        )

    def test_golden_cycles_match_with_compile_disabled(self):
        """The pinned golden file must be reproduced by the interpreted
        path too — the golden is a property of the timing model, not of
        the execution strategy."""
        want = json.loads(GOLDEN.read_text())
        result = run_figure5(_tiny_ctx(False))
        got = {
            f"{bar.benchmark}/{bar.mode}": bar.total_cycles
            for bar in result.bars
        }
        assert got == want
