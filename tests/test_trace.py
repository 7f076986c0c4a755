"""Tests for trace records, the recorder, address map, and cost models."""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.tpcc import (
    TPCCScale,
    generate_sampled_mix_workload,
    generate_workload,
)
from repro.trace import (
    AddressMap,
    CostModel,
    EpochTrace,
    Op,
    ParallelRegion,
    PCRegistry,
    Rec,
    SerialSegment,
    TraceRecorder,
    TransactionTrace,
    TransactionTraceBuilder,
    WorkloadTrace,
    default_costs,
    paper_scale_costs,
    record_instruction_count,
    workload_from_dict,
    workload_to_dict,
)


class TestRecords:
    def test_instruction_counts(self):
        assert record_instruction_count((Rec.COMPUTE, 50)) == 50
        assert record_instruction_count((Rec.TLS_OVERHEAD, 7)) == 7
        assert record_instruction_count((Rec.OP, 0, 3)) == 3
        assert record_instruction_count((Rec.LOAD, 0, 4, 0)) == 1
        assert record_instruction_count((Rec.BRANCH, 0, True)) == 1

    def test_epoch_instruction_count_cached(self):
        e = EpochTrace(epoch_id=0, records=[(Rec.COMPUTE, 10)] * 3)
        assert e.instruction_count == 30

    def test_coverage_computation(self):
        serial = SerialSegment(records=[(Rec.COMPUTE, 30)])
        region = ParallelRegion(
            epochs=[EpochTrace(0, [(Rec.COMPUTE, 70)])]
        )
        txn = TransactionTrace(name="t", segments=[serial, region])
        assert txn.coverage == pytest.approx(0.7)

    def test_workload_stats(self):
        region = ParallelRegion(
            epochs=[
                EpochTrace(0, [(Rec.COMPUTE, 100)]),
                EpochTrace(1, [(Rec.COMPUTE, 200)]),
            ]
        )
        txn = TransactionTrace(name="t", segments=[region])
        wl = WorkloadTrace(name="w", transactions=[txn, txn])
        assert wl.average_epoch_size() == 150
        assert wl.epochs_per_transaction() == 2


class TestAddressMap:
    def test_page_addresses_disjoint(self):
        amap = AddressMap()
        a0 = amap.page_addr(0, 0)
        a1 = amap.page_addr(1, 0)
        assert a1 - a0 == amap.page_size

    def test_page_offset_bounds(self):
        amap = AddressMap()
        with pytest.raises(ValueError):
            amap.page_addr(0, amap.page_size)

    def test_slot_addr_clamped(self):
        amap = AddressMap()
        huge = amap.page_slot_addr(0, 10_000)
        assert huge < amap.page_addr(1, 0)

    def test_regions_disjoint(self):
        amap = AddressMap()
        addrs = [
            amap.page_addr(0),
            amap.frame_ctl_addr(0),
            amap.lru_head_addr(),
            amap.log_tail_addr(),
            amap.lock_bucket_addr(0),
            amap.txn_counter_addr(),
            amap.app_scratch_addr(0, 0),
            amap.results_tail_addr(),
        ]
        assert len(set(a >> 24 for a in addrs)) == len(addrs)
        # The free-space map lives in pool metadata but far from the
        # frame control blocks.
        assert amap.fsm_addr(0) > amap.frame_ctl_addr(100_000)


class TestPCRegistry:
    def test_stable_allocation(self):
        pcs = PCRegistry()
        a = pcs.pc("site.a")
        b = pcs.pc("site.b")
        assert a != b
        assert pcs.pc("site.a") == a
        assert pcs.name(a) == "site.a"

    def test_unknown_pc_renders_hex(self):
        pcs = PCRegistry()
        assert pcs.name(0xDEAD).startswith("0x")


class TestCostModel:
    def test_scaling_floors_at_one(self):
        tiny = CostModel().scaled(0.0001)
        assert tiny.key_compare >= 1

    def test_paper_scale_larger_than_default(self):
        assert paper_scale_costs().app_work > default_costs().app_work

    @given(st.floats(min_value=0.01, max_value=2.0))
    def test_scaling_monotone(self, scale):
        base = CostModel()
        scaled = base.scaled(scale)
        for name in base.__dataclass_fields__:
            assert getattr(scaled, name) >= 1


class TestRecorder:
    def test_compute_coalesced(self):
        rec = TraceRecorder()
        records = []
        rec.set_target(records)
        rec.compute(10)
        rec.compute(20)
        rec.load(0x100, 4, "site")
        rec.set_target(None)
        assert records[0] == (Rec.COMPUTE, 30)
        assert records[1][0] == Rec.LOAD

    def test_discards_without_target(self):
        rec = TraceRecorder()
        rec.compute(10)
        rec.load(0x100, 4, "x")
        records = []
        rec.set_target(records)
        rec.store(0x200, 4, "y")
        rec.set_target(None)
        assert len(records) == 1 and records[0][0] == Rec.STORE

    def test_latch_records(self):
        rec = TraceRecorder()
        records = []
        rec.set_target(records)
        rec.latch_acquire(7, "x")
        rec.latch_release(7)
        rec.set_target(None)
        kinds = [r[0] for r in records]
        assert Rec.LATCH_ACQ in kinds and Rec.LATCH_REL in kinds

    def test_scratch_addr_arenas(self):
        rec = TraceRecorder()
        rec.epoch_hint = -1
        serial = rec.scratch_addr(0)
        rec.epoch_hint = 0
        e0 = rec.scratch_addr(0)
        rec.epoch_hint = 4
        e4 = rec.scratch_addr(0)
        rec.epoch_hint = 1
        e1 = rec.scratch_addr(0)
        assert e0 == e4  # same arena (same CPU slot)
        assert serial != e0 != e1


class TestTransactionTraceBuilder:
    def test_structure_serial_parallel_serial(self):
        rec = TraceRecorder()
        b = TransactionTraceBuilder("t", rec)
        b.begin_serial()
        rec.compute(10)
        b.begin_parallel()
        for _ in range(2):
            b.begin_epoch()
            rec.compute(5)
        b.end_parallel()
        b.begin_serial()
        rec.compute(7)
        trace = b.finish()
        kinds = [type(s).__name__ for s in trace.segments]
        assert kinds == ["SerialSegment", "ParallelRegion", "SerialSegment"]
        assert trace.epoch_count() == 2

    def test_epoch_spawn_overhead_emitted(self):
        rec = TraceRecorder()
        b = TransactionTraceBuilder("t", rec)
        b.begin_parallel()
        b.begin_epoch()
        rec.compute(5)
        b.end_parallel()
        trace = b.finish()
        epoch = trace.epochs()[0]
        assert any(r[0] == Rec.TLS_OVERHEAD for r in epoch.records)

    def test_sequential_mode_flattens_epochs(self):
        rec = TraceRecorder()
        b = TransactionTraceBuilder("t", rec, tls_mode=False)
        b.begin_serial()
        rec.compute(10)
        b.begin_parallel()
        b.begin_epoch()
        rec.compute(5)
        b.end_parallel()
        trace = b.finish()
        assert trace.epoch_count() == 0
        assert trace.coverage == 0.0
        assert trace.instruction_count == 15
        # No TLS overhead anywhere in a sequential build.
        for seg in trace.segments:
            assert all(r[0] != Rec.TLS_OVERHEAD for r in seg.records)

    def test_empty_segments_dropped(self):
        rec = TraceRecorder()
        b = TransactionTraceBuilder("t", rec)
        b.begin_serial()
        b.begin_parallel()
        b.end_parallel()
        trace = b.finish()
        assert trace.segments == []

    def test_zero_instruction_segments_dropped(self):
        """A segment is kept when any record retires an instruction; a
        region keeps a zero-instruction epoch next to a non-empty one."""
        rec = TraceRecorder(costs=CostModel(tls_spawn=0))
        b = TransactionTraceBuilder("t", rec)
        b.begin_serial()
        rec.op(Op.FP, 0)
        b.begin_parallel()
        b.begin_epoch()
        rec.op(Op.FP, 0)
        b.begin_epoch()
        rec.compute(5)
        b.end_parallel()
        b.begin_serial()
        rec.op(Op.FP, 0)
        b.begin_parallel()
        b.begin_epoch()
        rec.op(Op.FP, 0)
        b.end_parallel()
        trace = b.finish()
        kinds = [type(s).__name__ for s in trace.segments]
        assert kinds == ["ParallelRegion"]
        assert [len(e.records) for e in trace.epochs()] == [1, 1]
        assert trace.instruction_count == 5

    def test_multiple_regions(self):
        rec = TraceRecorder()
        b = TransactionTraceBuilder("t", rec)
        for _ in range(2):
            b.begin_parallel()
            b.begin_epoch()
            rec.compute(5)
            b.end_parallel()
            b.begin_serial()
            rec.compute(3)
        trace = b.finish()
        regions = [s for s in trace.segments
                   if type(s).__name__ == "ParallelRegion"]
        assert len(regions) == 2

    def test_epoch_hint_follows_epochs(self):
        rec = TraceRecorder()
        b = TransactionTraceBuilder("t", rec)
        b.begin_parallel()
        b.begin_epoch()
        assert rec.epoch_hint == 0
        b.begin_epoch()
        assert rec.epoch_hint == 1
        b.end_parallel()
        b.begin_serial()
        assert rec.epoch_hint == -1


def _records(workload):
    for txn in workload.transactions:
        for seg in txn.segments:
            if isinstance(seg, SerialSegment):
                yield from seg.records
            else:
                for epoch in seg.epochs:
                    yield from epoch.records


def _dump(workload) -> str:
    return json.dumps(workload_to_dict(workload), separators=(",", ":"))


class TestRecordInterning:
    """Finished and loaded traces hold one tuple per distinct record."""

    @staticmethod
    def assert_interned(workload):
        recs = list(_records(workload))
        distinct = set(recs)
        assert len(distinct) < len(recs)  # the check has something to see
        assert len({id(r) for r in recs}) == len(distinct)

    @pytest.fixture(scope="class", params=[True, False],
                    ids=["tls", "sequential"])
    def generated(self, request):
        """A tiny generated workload and a sampled mix whose first
        payment and new_order are muted (as tests/test_trace_pins.py)."""
        tiny = TPCCScale.tiny()
        return (
            generate_workload(
                "new_order", tls_mode=request.param, n_transactions=2,
                seed=42, scale=tiny,
            ).trace,
            generate_sampled_mix_workload(
                tls_mode=request.param, n_transactions=8, seed=7,
                scale=tiny, record_indices={2, 3, 4},
            ).trace,
        )

    def test_generated_records_interned(self, generated):
        for workload in generated:
            self.assert_interned(workload)

    def test_loaded_records_interned(self, generated):
        for workload in generated:
            self.assert_interned(
                workload_from_dict(json.loads(_dump(workload)))
            )

    def test_dump_load_dump_bytes_identical(self, generated):
        for workload in generated:
            text = _dump(workload)
            assert _dump(workload_from_dict(json.loads(text))) == text

    def test_round_trip_equal_after_counts_cached(self, generated):
        # Reading a cached instruction count on one side must not make
        # two equal traces compare unequal.
        for workload in generated:
            loaded = workload_from_dict(json.loads(_dump(workload)))
            assert loaded == workload
            loaded.average_epoch_size()
            assert loaded == workload
