"""Tests for epoch execution state: sub-threads, rewinds, store masks."""

import pytest

from repro.core.accounting import Category
from repro.core.epoch import EpochExecution, EpochStatus
from repro.trace.events import EpochTrace, Rec


def make_epoch(n_records=10, order=1, speculative=True):
    records = [(Rec.COMPUTE, 100)] * n_records
    trace = EpochTrace(epoch_id=0, records=records)
    epoch = EpochExecution(trace, order=order, cpu=0,
                           speculative=speculative)
    epoch.status = EpochStatus.RUNNING
    return epoch


class TestSubThreads:
    def test_start_subthread_checkpoints_cursor(self):
        e = make_epoch()
        e.cursor = 3
        e.offset = 40
        cp = e.start_subthread(ctx=5, now=100.0)
        assert cp.index == 0
        assert cp.cursor == 3 and cp.offset == 40
        assert e.current_ctx == 5

    def test_nonspeculative_epoch_has_no_ctx(self):
        e = make_epoch(speculative=False)
        e.start_subthread(ctx=5, now=0.0)
        assert e.current_ctx is None

    def test_rewind_restores_cursor_and_truncates(self):
        e = make_epoch()
        e.start_subthread(0, 0.0)
        e.cursor = 2
        e.start_subthread(1, 10.0)
        e.cursor = 5
        e.start_subthread(2, 20.0)
        e.cursor = 8
        ctxs, latches, failed = e.rewind_to(1, now=50.0)
        assert ctxs == [1, 2]
        assert e.cursor == 2
        assert len(e.subthreads) == 2
        assert e.current_subthread.index == 1

    def test_rewind_collects_pending_as_failed(self):
        e = make_epoch()
        e.start_subthread(0, 0.0)
        e.accrue(Category.BUSY, 100)
        e.start_subthread(1, 10.0)
        e.accrue(Category.MISS, 50)
        _, _, failed = e.rewind_to(1, now=60.0)
        assert failed.total() == 50
        # Sub-thread 0's pending is untouched.
        assert e.subthreads[0].pending.get(Category.BUSY) == 100

    def test_rewind_to_zero_counts_restart(self):
        e = make_epoch()
        e.start_subthread(0, 0.0)
        e.rewind_to(0, now=5.0)
        assert e.restarts == 1
        assert e.violations_suffered == 1

    def test_rewind_out_of_range_raises(self):
        e = make_epoch()
        e.start_subthread(0, 0.0)
        with pytest.raises(ValueError):
            e.rewind_to(3, now=0.0)

    def test_rewind_releases_latches_of_rewound_subthreads(self):
        e = make_epoch()
        e.start_subthread(0, 0.0)
        e.current_subthread.latches.append(11)
        e.start_subthread(1, 0.0)
        e.current_subthread.latches.append(22)
        _, latches, _ = e.rewind_to(1, now=0.0)
        assert latches == [22]

    def test_rewind_reactivates_finished_epoch(self):
        e = make_epoch()
        e.start_subthread(0, 0.0)
        e.status = EpochStatus.FINISHED
        e.finish_cycle = 100.0
        e.rewind_to(0, now=120.0)
        assert e.status == EpochStatus.RUNNING
        assert e.finish_cycle is None


class TestStoreMasks:
    def test_covered_load_not_exposed(self):
        e = make_epoch()
        e.start_subthread(0, 0.0)
        e.note_store(0x100, 0b0011)
        assert e.covers_load(0x100, 0b0001)
        assert e.covers_load(0x100, 0b0011)
        assert not e.covers_load(0x100, 0b0111)

    def test_coverage_unions_across_subthreads(self):
        e = make_epoch()
        e.start_subthread(0, 0.0)
        e.note_store(0x100, 0b0001)
        e.start_subthread(1, 0.0)
        e.note_store(0x100, 0b0010)
        assert e.covers_load(0x100, 0b0011)

    def test_rewind_clears_rewound_store_masks(self):
        e = make_epoch()
        e.start_subthread(0, 0.0)
        e.start_subthread(1, 0.0)
        e.note_store(0x100, 0b1111)
        e.rewind_to(1, now=0.0)
        assert not e.covers_load(0x100, 0b0001)

    def test_unrelated_line_never_covered(self):
        e = make_epoch()
        e.start_subthread(0, 0.0)
        e.note_store(0x100, 0b1111)
        assert not e.covers_load(0x200, 0b0001)


class TestAccounting:
    def test_retire_tracks_checkpoint_distance(self):
        e = make_epoch()
        e.start_subthread(0, 0.0)
        e.retire(100)
        e.retire(50)
        assert e.instrs_since_checkpoint == 150

    def test_drain_pending_collects_and_clears(self):
        e = make_epoch()
        e.start_subthread(0, 0.0)
        e.accrue(Category.BUSY, 10)
        e.start_subthread(1, 0.0)
        e.accrue(Category.SYNC, 5)
        total = e.drain_pending()
        assert total.get(Category.BUSY) == 10
        assert total.get(Category.SYNC) == 5
        assert e.pending_cycles().total() == 0

    def test_done_tracks_cursor(self):
        e = make_epoch(n_records=2)
        assert not e.done
        e.cursor = 2
        assert e.done


class TestFailedIntervalCharging:
    def make(self):
        return make_epoch()

    def test_first_charge_full_length(self):
        e = self.make()
        assert e.charge_failed_interval(10, 30) == 20

    def test_disjoint_intervals_charge_fully(self):
        e = self.make()
        e.charge_failed_interval(10, 20)
        assert e.charge_failed_interval(40, 50) == 10
        assert e.failed_intervals == [(10, 20), (40, 50)]

    def test_overlap_subtracted(self):
        e = self.make()
        e.charge_failed_interval(10, 30)
        assert e.charge_failed_interval(20, 40) == 10
        assert e.failed_intervals == [(10, 40)]

    def test_contained_interval_free(self):
        e = self.make()
        e.charge_failed_interval(10, 50)
        assert e.charge_failed_interval(20, 30) == 0

    def test_bridging_interval_merges(self):
        e = self.make()
        e.charge_failed_interval(10, 20)
        e.charge_failed_interval(30, 40)
        assert e.charge_failed_interval(15, 35) == 10
        assert e.failed_intervals == [(10, 40)]

    def test_empty_interval_ignored(self):
        e = self.make()
        assert e.charge_failed_interval(10, 10) == 0
        assert e.charge_failed_interval(10, 5) == 0
        assert e.failed_intervals == []

    def test_total_never_exceeds_span(self):
        import random

        e = self.make()
        rng = random.Random(3)
        total = 0.0
        for _ in range(100):
            lo = rng.uniform(0, 900)
            hi = lo + rng.uniform(0, 100)
            total += e.charge_failed_interval(lo, hi)
        covered = sum(b - a for a, b in e.failed_intervals)
        assert total == pytest.approx(covered)
        assert covered <= 1000
