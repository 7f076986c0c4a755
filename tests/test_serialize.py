"""Tests for workload-trace serialization."""

import io
import json

import pytest

from repro.sim import ExecutionMode, Machine, MachineConfig
from repro.tpcc import TPCCScale, generate_workload
from repro.trace import (
    load_workload,
    save_workload,
    workload_from_dict,
    workload_to_dict,
)
from repro.trace.events import (
    EpochTrace,
    Op,
    ParallelRegion,
    Rec,
    SerialSegment,
    TransactionTrace,
    WorkloadTrace,
)


@pytest.fixture(scope="module")
def workload():
    return generate_workload(
        "new_order", n_transactions=2, scale=TPCCScale.tiny()
    ).trace


class TestRoundTrip:
    def test_dict_round_trip_preserves_structure(self, workload):
        again = workload_from_dict(workload_to_dict(workload))
        assert again.name == workload.name
        assert again.instruction_count == workload.instruction_count
        assert again.epoch_count() == workload.epoch_count()
        assert again.coverage == workload.coverage

    def test_records_identical(self, workload):
        again = workload_from_dict(workload_to_dict(workload))
        for t1, t2 in zip(workload.transactions, again.transactions):
            for s1, s2 in zip(t1.segments, t2.segments):
                if hasattr(s1, "epochs"):
                    for e1, e2 in zip(s1.epochs, s2.epochs):
                        assert e1.records == e2.records
                else:
                    assert s1.records == s2.records

    def test_file_round_trip(self, workload, tmp_path):
        path = tmp_path / "trace.json"
        save_workload(workload, path)
        again = load_workload(path)
        assert again.instruction_count == workload.instruction_count

    def test_file_bytes_are_the_compact_json_document(self, workload,
                                                      tmp_path):
        # Pins the trace-cache format, so existing cache entries stay
        # valid: the one-shot C encoder over the tuple-record document
        # writes the same bytes as the streaming encoder over the
        # all-list document.
        path = tmp_path / "trace.json"
        save_workload(workload, path)
        expected = json.dumps(
            workload_to_dict(workload), separators=(",", ":")
        )
        assert path.read_bytes() == expected.encode()
        streamed = io.StringIO()
        json.dump(json.loads(expected), streamed, separators=(",", ":"))
        assert streamed.getvalue() == expected

    def test_simulation_of_loaded_trace_is_identical(self, workload,
                                                     tmp_path):
        path = tmp_path / "trace.json"
        save_workload(workload, path)
        again = load_workload(path)
        cfg = MachineConfig.for_mode(ExecutionMode.BASELINE)
        a = Machine(cfg).run(workload)
        b = Machine(cfg).run(again)
        assert a.total_cycles == b.total_cycles
        assert a.primary_violations == b.primary_violations


class TestAllRecordKinds:
    """Every record layout survives a disk round trip.

    The persistent trace cache (repro.harness.tracecache) stores traces
    through this serializer, so every kind the generator can emit —
    including the latch records, which the TPC-C fixture above only
    produces under contention — must round-trip exactly.
    """

    # One record of each of the 8 kinds, per the layouts documented in
    # repro.trace.events.
    ALL_KINDS = [
        (Rec.COMPUTE, 17),
        (Rec.OP, Op.INT_DIV, 3),
        (Rec.LOAD, 0x1234, 8, 501),
        (Rec.STORE, 0xFFF8, 16, 502),  # crosses a line boundary
        (Rec.BRANCH, 503, True),
        (Rec.LATCH_ACQ, 7, 504),
        (Rec.LATCH_REL, 7),
        (Rec.TLS_OVERHEAD, 5),
    ]

    def _workload(self):
        return WorkloadTrace(
            name="kinds",
            transactions=[
                TransactionTrace(
                    name="t",
                    segments=[
                        SerialSegment(records=list(self.ALL_KINDS)),
                        ParallelRegion(
                            epochs=[
                                EpochTrace(0, list(self.ALL_KINDS)),
                                EpochTrace(1, list(reversed(
                                    self.ALL_KINDS
                                ))),
                            ]
                        ),
                    ],
                )
            ],
        )

    def test_covers_every_kind(self):
        kinds = {r[0] for r in self.ALL_KINDS}
        assert kinds == set(Rec.NAMES), "update ALL_KINDS for new kinds"

    def test_dict_round_trip(self):
        wl = self._workload()
        again = workload_from_dict(workload_to_dict(wl))
        serial, region = again.transactions[0].segments
        assert list(serial.records) == self.ALL_KINDS
        assert list(region.epochs[0].records) == self.ALL_KINDS
        assert list(region.epochs[1].records) == list(
            reversed(self.ALL_KINDS)
        )

    def test_file_round_trip_bytes_stable(self, tmp_path):
        wl = self._workload()
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_workload(wl, p1)
        save_workload(load_workload(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_records_stay_tuples(self):
        again = workload_from_dict(workload_to_dict(self._workload()))
        for rec in again.transactions[0].segments[0].records:
            assert isinstance(rec, tuple)


class TestValidation:
    def test_rejects_foreign_document(self):
        with pytest.raises(ValueError):
            workload_from_dict({"format": "something-else"})

    def test_rejects_wrong_version(self, workload):
        doc = workload_to_dict(workload)
        doc["version"] = 999
        with pytest.raises(ValueError):
            workload_from_dict(doc)

    def test_rejects_unknown_segment_type(self, workload):
        doc = workload_to_dict(workload)
        doc["transactions"][0]["segments"][0]["type"] = "mystery"
        with pytest.raises(ValueError):
            workload_from_dict(doc)


class TestPropertyRoundTrip:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @staticmethod
    def _records():
        from hypothesis import strategies as st

        from repro.trace.events import Rec

        return st.lists(
            st.one_of(
                st.tuples(st.just(Rec.COMPUTE), st.integers(1, 10_000)),
                st.tuples(
                    st.just(Rec.LOAD),
                    st.integers(0, 2**32),
                    st.integers(1, 64),
                    st.integers(0, 2**24),
                ),
                st.tuples(
                    st.just(Rec.STORE),
                    st.integers(0, 2**32),
                    st.integers(1, 64),
                    st.integers(0, 2**24),
                ),
                st.tuples(
                    st.just(Rec.BRANCH),
                    st.integers(0, 2**24),
                    st.booleans(),
                ),
            ),
            max_size=20,
        )

    @given(records=_records.__func__())
    @settings(max_examples=40, deadline=None)
    def test_arbitrary_records_round_trip(self, records):
        from repro.trace.events import (
            EpochTrace,
            ParallelRegion,
            TransactionTrace,
            WorkloadTrace,
        )

        wl = WorkloadTrace(
            name="w",
            transactions=[
                TransactionTrace(
                    name="t",
                    segments=[
                        ParallelRegion(
                            epochs=[EpochTrace(0, list(records))]
                        )
                    ],
                )
            ],
        )
        again = workload_from_dict(workload_to_dict(wl))
        assert list(
            again.transactions[0].segments[0].epochs[0].records
        ) == list(records)
