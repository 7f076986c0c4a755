"""Tests for static dependence analysis (E12)."""

from repro.harness import run_dependence_analysis
from repro.tpcc import TPCCScale
from repro.trace import dependence_stats
from repro.trace.events import (
    EpochTrace,
    ParallelRegion,
    Rec,
    SerialSegment,
    TransactionTrace,
    WorkloadTrace,
)

A = 0x1000_0000
B = A + 0x100


def wl(*epochs, serial=None):
    segments = []
    if serial:
        segments.append(SerialSegment(records=serial))
    segments.append(
        ParallelRegion(
            epochs=[
                EpochTrace(epoch_id=i, records=list(r))
                for i, r in enumerate(epochs)
            ]
        )
    )
    return WorkloadTrace(
        name="w",
        transactions=[TransactionTrace(name="t", segments=segments)],
    )


class TestDependenceStats:
    def test_dependent_load_counted(self):
        stats = dependence_stats(
            wl(
                [(Rec.STORE, A, 4, 1)],
                [(Rec.LOAD, A, 4, 2)],
            )
        )
        assert stats.total_dependent_loads == 1
        assert stats.dependent_loads_per_epoch() == 0.5
        assert stats.by_load_pc == {2: 1}

    def test_load_before_store_epoch_not_dependent(self):
        stats = dependence_stats(
            wl(
                [(Rec.LOAD, A, 4, 2)],
                [(Rec.STORE, A, 4, 1)],
            )
        )
        assert stats.total_dependent_loads == 0

    def test_same_epoch_store_not_dependent(self):
        stats = dependence_stats(
            wl([(Rec.STORE, A, 4, 1), (Rec.LOAD, A, 4, 2)])
        )
        assert stats.total_dependent_loads == 0

    def test_different_lines_independent(self):
        stats = dependence_stats(
            wl(
                [(Rec.STORE, A, 4, 1)],
                [(Rec.LOAD, B, 4, 2)],
            )
        )
        assert stats.total_dependent_loads == 0

    def test_false_sharing_within_line(self):
        stats = dependence_stats(
            wl(
                [(Rec.STORE, A, 4, 1)],
                [(Rec.LOAD, A + 8, 4, 2)],  # same 32B line
            )
        )
        assert stats.total_dependent_loads == 1

    def test_transitive_earlier_epochs_count(self):
        stats = dependence_stats(
            wl(
                [(Rec.STORE, A, 4, 1)],
                [(Rec.COMPUTE, 10)],
                [(Rec.LOAD, A, 4, 2)],
            )
        )
        assert stats.total_dependent_loads == 1

    def test_serial_segments_ignored(self):
        stats = dependence_stats(
            wl(
                [(Rec.LOAD, A, 4, 2)],
                serial=[(Rec.STORE, A, 4, 1)],
            )
        )
        assert stats.total_dependent_loads == 0

    def test_regions_are_independent(self):
        txn = TransactionTrace(
            name="t",
            segments=[
                ParallelRegion(
                    epochs=[EpochTrace(0, [(Rec.STORE, A, 4, 1)])]
                ),
                ParallelRegion(
                    epochs=[EpochTrace(0, [(Rec.LOAD, A, 4, 2)])]
                ),
            ],
        )
        stats = dependence_stats(
            WorkloadTrace(name="w", transactions=[txn])
        )
        assert stats.total_dependent_loads == 0

    def test_multiline_store_spans(self):
        stats = dependence_stats(
            wl(
                [(Rec.STORE, A, 64, 1)],  # two lines
                [(Rec.LOAD, A + 32, 4, 2)],
            )
        )
        assert stats.total_dependent_loads == 1

    def test_report_renders(self):
        stats = dependence_stats(
            wl([(Rec.STORE, A, 4, 1)], [(Rec.LOAD, A, 4, 2)])
        )
        text = stats.report()
        assert "dependent loads per thread" in text


class TestE12:
    def test_tuning_reduces_dependent_loads(self):
        result = run_dependence_analysis(
            n_transactions=2, scale=TPCCScale.tiny()
        )
        assert len(result.points) == 5
        # The paper's 292 -> 75 shape: a substantial reduction.
        assert result.reduction_factor() > 1.3
        assert (
            result.last().dependent_loads_per_thread
            < result.first().dependent_loads_per_thread
        )
        # Residual dependences remain (they are what sub-threads absorb).
        assert result.last().dependent_loads_per_thread > 0
        assert "E12" in result.render()
