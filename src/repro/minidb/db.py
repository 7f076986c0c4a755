"""The minidb database facade.

``Database`` owns the buffer pool, page allocator, WAL, lock manager, and
a set of named B+-tree tables, all sharing one recorder.  It stands in
for BerkeleyDB in the paper's evaluation: the same structural features
(B-trees, a buffer cache, locking, logging, transactional execution) and
therefore the same classes of cross-epoch dependences.

``EngineOptions`` captures the TLS software-optimization state.  The
unoptimized engine corresponds to the paper's starting point; turning the
flags off one at a time is exactly the iterative tuning loop of
Section 3 (see ``examples/tuning_walkthrough.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Iterable, Optional

from ..trace.recorder import NullRecorder
from .btree import BTree
from .bufferpool import BufferPool
from .errors import TableNotFound
from .locks import LockManager
from .log import WriteAheadLog
from .page import PageAllocator
from .txn import Transaction, TransactionManager


@dataclass(frozen=True)
class EngineOptions:
    """TLS-friendliness knobs (True = unoptimized, dependence-heavy)."""

    #: Log appends update the shared log-tail pointer.
    shared_log_tail: bool = True
    #: Buffer-pool fetches store to the global LRU chain head.
    lru_updates: bool = True
    #: Lock acquire/release stores to shared lock-table buckets.
    lock_bucket_stores: bool = True
    #: Page pins store to the shared frame control blocks (so two epochs
    #: touching the same page — e.g. the B-tree root — are dependent).
    pin_stores: bool = True

    @staticmethod
    def unoptimized() -> "EngineOptions":
        """The engine as first handed to TLS (all dependences present)."""
        return EngineOptions()

    @staticmethod
    def optimized() -> "EngineOptions":
        """The fully TLS-optimized engine (the paper's evaluated state)."""
        return EngineOptions(
            shared_log_tail=False,
            lru_updates=False,
            lock_bucket_stores=False,
            pin_stores=False,
        )

    def without(self, name: str) -> "EngineOptions":
        """Copy with one dependence source removed (tuning step)."""
        return replace(self, **{name: False})


class Database:
    """A minidb instance: tables + pool + WAL + locks + transactions."""

    def __init__(
        self,
        recorder: Optional[NullRecorder] = None,
        options: Optional[EngineOptions] = None,
        pool_capacity_pages: int = 1 << 20,
        page_size: int = 2048,
    ):
        self.recorder = recorder if recorder is not None else NullRecorder()
        self.options = options or EngineOptions.unoptimized()
        self.page_size = page_size
        self.allocator = PageAllocator()
        self.pool = BufferPool(
            self.recorder,
            capacity_pages=pool_capacity_pages,
            lru_updates=self.options.lru_updates,
            pin_stores=self.options.pin_stores,
        )
        self.log = WriteAheadLog(
            self.recorder, shared_tail=self.options.shared_log_tail
        )
        self.locks = LockManager(
            self.recorder, bucket_stores=self.options.lock_bucket_stores
        )
        self.txns = TransactionManager(self.recorder)
        self._tables: Dict[str, BTree] = {}

    # ------------------------------------------------------------------
    # Tables
    # ------------------------------------------------------------------

    def create_table(self, name: str, entry_size: int = 64) -> BTree:
        if name in self._tables:
            raise ValueError(f"table {name!r} already exists")
        tree = BTree(
            name=name,
            pool=self.pool,
            allocator=self.allocator,
            recorder=self.recorder,
            page_size=self.page_size,
            entry_size=entry_size,
            tree_id=len(self._tables),
        )
        self._tables[name] = tree
        return tree

    def table(self, name: str) -> BTree:
        tree = self._tables.get(name)
        if tree is None:
            raise TableNotFound(name)
        return tree

    def tables(self) -> Iterable[str]:
        return self._tables.keys()

    # ------------------------------------------------------------------
    # Transactions
    # ------------------------------------------------------------------

    def begin(self) -> Transaction:
        return self.txns.begin(self)

    def commit_epilogue(self) -> None:
        """Serial commit-time work: publish private log buffers."""
        if not self.log.shared_tail:
            self.log.publish_epoch_buffers()

    # ------------------------------------------------------------------
    # Validation (tests)
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        for tree in self._tables.values():
            tree.check_invariants()
