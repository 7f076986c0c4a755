"""Tests for buffer pool, WAL, lock manager, and transactions."""

import pytest

from repro.minidb import (
    Database,
    DeadlockError,
    EngineOptions,
    EXCLUSIVE,
    SHARED,
    LockManager,
    MiniDBError,
    WriteAheadLog,
)
from repro.minidb.bufferpool import BufferPool
from repro.minidb.page import LEAF, Page
from repro.trace import NullRecorder, TraceRecorder


class TestBufferPool:
    def make_pool(self, capacity=4):
        return BufferPool(NullRecorder(), capacity_pages=capacity)

    def add_pages(self, pool, n):
        for i in range(1, n + 1):
            pool.add_page(Page(page_id=i, kind=LEAF))

    def test_fetch_pins(self):
        pool = self.make_pool()
        self.add_pages(pool, 1)
        page = pool.fetch(1)
        assert page.page_id == 1
        assert pool.pin_count(1) == 1
        pool.unpin(1)
        assert pool.pin_count(1) == 0

    def test_unpin_unpinned_raises(self):
        pool = self.make_pool()
        self.add_pages(pool, 1)
        with pytest.raises(MiniDBError):
            pool.unpin(1)

    def test_eviction_when_over_capacity(self):
        pool = self.make_pool(capacity=2)
        self.add_pages(pool, 4)
        assert pool.resident_count() <= 2
        assert pool.evictions >= 2
        # Evicted pages are still reachable (refetched from backing).
        page = pool.fetch(1)
        assert page.page_id == 1
        pool.unpin(1)

    def test_pinned_pages_not_evicted(self):
        pool = self.make_pool(capacity=2)
        self.add_pages(pool, 2)
        pool.fetch(1)
        pool.fetch(2)
        with pytest.raises(MiniDBError):
            pool.add_page(Page(page_id=99, kind=LEAF))

    def test_fetch_unknown_page_raises(self):
        pool = self.make_pool()
        with pytest.raises(MiniDBError):
            pool.fetch(42)

    def test_pool_miss_counted(self):
        pool = self.make_pool(capacity=1)
        self.add_pages(pool, 2)
        pool.fetch(1)
        pool.unpin(1)
        pool.fetch(2)
        assert pool.pool_misses >= 1


class TestWriteAheadLog:
    def test_shared_tail_appends_immediately(self):
        log = WriteAheadLog(NullRecorder(), shared_tail=True)
        rec = log.append(1, "put", (1, 2))
        assert log.records == [rec]
        assert log.tail_bytes == rec.size_bytes()

    def test_lsns_monotonic(self):
        log = WriteAheadLog(NullRecorder(), shared_tail=True)
        lsns = [log.append(1, "x", ()).lsn for _ in range(5)]
        assert lsns == sorted(lsns)
        assert len(set(lsns)) == 5

    def test_private_buffers_defer_until_publish(self):
        rec = TraceRecorder()
        log = WriteAheadLog(rec, shared_tail=False)
        rec.epoch_hint = 0
        log.append(1, "a", ())
        rec.epoch_hint = 1
        log.append(1, "b", ())
        assert log.records == []
        assert log.pending_epoch_records() == 2
        published = log.publish_epoch_buffers()
        assert published == 2
        assert [r.kind for r in log.records] == ["a", "b"]
        assert log.pending_epoch_records() == 0

    def test_records_for_txn(self):
        log = WriteAheadLog(NullRecorder(), shared_tail=True)
        log.append(1, "a", ())
        log.append(2, "b", ())
        log.append(1, "c", ())
        assert [r.kind for r in log.records_for(1)] == ["a", "c"]


class TestLockManager:
    def test_exclusive_blocks_exclusive(self):
        lm = LockManager(NullRecorder())
        assert lm.acquire(1, ("row", 1))
        assert not lm.acquire(2, ("row", 1))
        assert lm.conflicts == 1

    def test_shared_compatible_with_shared(self):
        lm = LockManager(NullRecorder())
        assert lm.acquire(1, ("row", 1), SHARED)
        assert lm.acquire(2, ("row", 1), SHARED)

    def test_shared_blocks_exclusive(self):
        lm = LockManager(NullRecorder())
        lm.acquire(1, ("row", 1), SHARED)
        assert not lm.acquire(2, ("row", 1), EXCLUSIVE)

    def test_reentrant(self):
        lm = LockManager(NullRecorder())
        assert lm.acquire(1, ("row", 1))
        assert lm.acquire(1, ("row", 1))

    def test_release_all_grants_waiters(self):
        lm = LockManager(NullRecorder())
        lm.acquire(1, ("row", 1))
        lm.acquire(2, ("row", 1))
        granted = lm.release_all(1)
        assert (2, ("row", 1)) in granted
        assert lm.holders(("row", 1)) == {2: EXCLUSIVE}

    def test_deadlock_detected(self):
        lm = LockManager(NullRecorder())
        lm.acquire(1, ("row", "a"))
        lm.acquire(2, ("row", "b"))
        assert not lm.acquire(1, ("row", "b"))  # 1 waits for 2
        with pytest.raises(DeadlockError):
            lm.acquire(2, ("row", "a"))  # would close the cycle

    def test_no_false_deadlock(self):
        lm = LockManager(NullRecorder())
        lm.acquire(1, ("row", "a"))
        assert not lm.acquire(2, ("row", "a"))
        lm.release_all(1)
        assert lm.holders(("row", "a")) == {2: EXCLUSIVE}

    def test_bad_mode_rejected(self):
        lm = LockManager(NullRecorder())
        with pytest.raises(ValueError):
            lm.acquire(1, ("row", 1), "Z")

    def test_multiple_shared_waiters_granted_together(self):
        lm = LockManager(NullRecorder())
        lm.acquire(1, ("r",), EXCLUSIVE)
        lm.acquire(2, ("r",), SHARED)
        lm.acquire(3, ("r",), SHARED)
        granted = lm.release_all(1)
        assert {t for t, _ in granted} == {2, 3}


class TestTransactions:
    def test_commit_releases_locks_and_logs(self):
        db = Database()
        txn = db.begin()
        txn.lock(("row", 1))
        txn.log("put", (1,))
        txn.commit()
        assert db.locks.held_by(txn.txn_id) == set()
        kinds = [r.kind for r in db.log.records_for(txn.txn_id)]
        assert kinds == ["put", "commit"]

    def test_operations_after_commit_rejected(self):
        from repro.minidb import TransactionError

        db = Database()
        txn = db.begin()
        txn.commit()
        with pytest.raises(TransactionError):
            txn.lock(("row", 1))
        with pytest.raises(TransactionError):
            txn.commit()

    def test_abort(self):
        db = Database()
        txn = db.begin()
        txn.lock(("row", 1))
        txn.abort()
        assert db.locks.held_by(txn.txn_id) == set()
        assert db.log.records_for(txn.txn_id)[-1].kind == "abort"

    def test_txn_ids_unique(self):
        db = Database()
        ids = {db.begin().txn_id for _ in range(5)}
        assert len(ids) == 5


class TestEngineOptions:
    def test_optimized_disables_all_shared_stores(self):
        opt = EngineOptions.optimized()
        assert not opt.shared_log_tail
        assert not opt.lru_updates
        assert not opt.lock_bucket_stores
        assert not opt.pin_stores

    def test_without_removes_one_flag(self):
        opts = EngineOptions.unoptimized().without("lru_updates")
        assert not opts.lru_updates
        assert opts.shared_log_tail

    def test_database_wires_options(self):
        db = Database(options=EngineOptions.optimized())
        assert not db.log.shared_tail
        assert not db.pool.lru_updates
        assert not db.pool.pin_stores
        assert not db.locks.bucket_stores

    def test_table_registry(self):
        from repro.minidb import TableNotFound

        db = Database()
        db.create_table("a")
        assert db.table("a").name == "a"
        with pytest.raises(TableNotFound):
            db.table("missing")
        with pytest.raises(ValueError):
            db.create_table("a")
