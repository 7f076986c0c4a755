"""Trace pre-compilation (repro.trace.compile).

Two halves: unit tests of the lowering pass itself (per-line memory
tuples) and of the compiled-region cache, and byte-identity tests
asserting that a simulation with compiled traces produces exactly the
same statistics, figure exports, and golden cycle counts as the
fully-interpreted path.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from repro.cpu.pipeline import PipelineConfig
from repro.harness.export import result_to_dict
from repro.harness.figure5 import run_figure5
from repro.harness.figure6 import run_figure6
from repro.harness.runner import ExperimentContext, JobRunner
from repro.harness.tracecache import materialize
from repro.sim import ExecutionMode, Machine, MachineConfig
from repro.tpcc import BENCHMARKS, TPCCScale, generate_workload
from repro.trace.compile import compile_region
from repro.trace.events import EpochTrace, Rec, SerialSegment

GOLDEN = Path(__file__).parent / "golden" / "figure5_tiny.json"


def _l2():
    return Machine(MachineConfig()).l2


def _epoch(records):
    return EpochTrace(epoch_id=0, records=list(records))


# ----------------------------------------------------------------------
# Memory lowering
# ----------------------------------------------------------------------


class TestMemoryLowering:
    def test_line_tuple_matches_geometry(self):
        l2 = _l2()
        line_size = l2.geom.line_size
        addr = 3 * line_size + (line_size - 4)  # spans two lines
        records = [(Rec.LOAD, addr, 8, 0x400000)]
        lines = compile_region([_epoch(records)], l2)[0][0]
        assert [ln for ln, *_ in lines] == list(
            l2.geom.lines_touched(addr, 8)
        )
        (l0, sub0, mask0, _), (l1, sub1, mask1, _) = lines
        assert sub0 == addr and sub1 == l1
        assert mask0 == l2.word_mask(addr, l0 + line_size - addr)
        assert mask1 == l2.word_mask(l1, addr + 8 - l1)

    def test_load_bits_follow_granularity(self):
        l2 = _l2()
        records = [(Rec.LOAD, 0x1000, 4, 0x400000)]
        lines = compile_region([_epoch(records)], l2)[0][0]
        _, _, wmask, load_bits = lines[0]
        if l2.line_granularity_loads:
            assert load_bits == l2._full_line_mask
        else:
            assert load_bits == wmask

    def test_line_tuples_interned_across_epochs(self):
        """Every record of a region that makes the same (addr, size)
        access, load or store, from any PC or epoch, holds one entry."""
        a = EpochTrace(epoch_id=0, records=[
            (Rec.LOAD, 0x1000, 4, 0x400000),
            (Rec.COMPUTE, 3),
            (Rec.STORE, 0x1000, 4, 0x400010),
            (Rec.LOAD, 0x1000, 8, 0x400000),
        ])
        b = EpochTrace(epoch_id=1, records=[(Rec.LOAD, 0x1000, 4, 0x400020)])
        comp = compile_region([a, b], _l2())
        first = comp[0][0]
        assert comp[0][2] is first
        assert comp[1][0] is first
        assert comp[0][3] is not first  # (addr, 8): another access


def _reference_lowering(epoch_traces, l2):
    """Per-record lowering written for clarity, not speed: every memory
    record is lowered on its own.  Returns the per-epoch entries."""
    geom = l2.geom

    def mem_entry(addr, size):
        end = addr + max(size, 1)
        lines = []
        for line in geom.lines_touched(addr, size):
            sub_addr = max(addr, line)
            sub_size = max(1, min(end, line + geom.line_size) - sub_addr)
            wmask = l2.word_mask(sub_addr, sub_size)
            load_bits = (
                l2._full_line_mask if l2.line_granularity_loads else wmask
            )
            lines.append((line, sub_addr, wmask, load_bits))
        return tuple(lines)

    return [
        tuple(
            mem_entry(rec[1], rec[2])
            if rec[0] in (Rec.LOAD, Rec.STORE) else None
            for rec in trace.records
        )
        for trace in epoch_traces
    ]


@pytest.fixture(scope="module")
def tiny_regions():
    """Every region of tiny traces of all 7 benchmarks in both modes,
    as the machine forms them (a serial segment is one epoch)."""
    regions = []
    for benchmark in sorted(BENCHMARKS):
        for tls_mode in (True, False):
            trace = generate_workload(
                benchmark, tls_mode=tls_mode, n_transactions=2, seed=42,
                scale=TPCCScale.tiny(),
            ).trace
            for txn in trace.transactions:
                for seg in txn.segments:
                    if isinstance(seg, SerialSegment):
                        regions.append([
                            EpochTrace(epoch_id=-1, records=seg.records)
                        ])
                    else:
                        regions.append(seg.epochs)
    return regions


@pytest.mark.parametrize("compute_batches", [True, False],
                         ids=["batches", "no-batches"])
def test_lowering_matches_per_record_reference(tiny_regions, compute_batches):
    """Entries stay parallel to the records whether or not COMPUTE batch
    records sit between the memory records: "no-batches" lowers the same
    regions with every COMPUTE record taken out."""
    l2 = _l2()
    regions = tiny_regions if compute_batches else [
        [
            EpochTrace(
                epoch_id=trace.epoch_id,
                records=[r for r in trace.records if r[0] != Rec.COMPUTE],
            )
            for trace in region
        ]
        for region in tiny_regions
    ]
    assert any(len(region) == 1 for region in regions)
    assert any(len(region) > 1 for region in regions)
    assert compute_batches == any(
        rec[0] == Rec.COMPUTE
        for region in regions for trace in region for rec in trace.records
    )
    for region in regions:
        assert compile_region(region, l2) == _reference_lowering(region, l2)


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

    def test_pipeline_and_overlap_loads_share_compiled_regions(self):
        """The compile key is the cache geometry alone: a machine with
        overlap loads on, or with another pipeline, replays the regions
        a default machine lowered, and still computes exactly what the
        interpreted path computes."""
        ctx = ExperimentContext(
            n_transactions=2, seed=42, scale=TPCCScale.tiny()
        )
        trace = materialize(ctx.spec("new_order", mode=ExecutionMode.BASELINE))
        Machine(MachineConfig()).run(trace)
        for config in (
            MachineConfig(overlap_loads=True),
            MachineConfig(
                pipeline=PipelineConfig(issue_width=2, mispredict_penalty=9)
            ),
        ):
            stats = Machine(config).run(trace)
            assert stats.counters()["compile.region_cache_reuses"] > 0
            interpreted = Machine(
                dataclasses.replace(config, compile_traces=False)
            ).run(trace)
            assert stats == interpreted
            assert stats.total_cycles == interpreted.total_cycles


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
        stall) matches the interpreted path."""
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
