"""A BerkeleyDB-like transactional storage engine (the paper's substrate).

Fully functional in Python (B+-trees, buffer pool, latches, 2PL locks,
write-ahead log, transactions) and instrumented so that executing a
workload against it emits the memory/compute/latch trace the TLS
simulator replays.
"""

from .btree import BTree
from .bufferpool import BufferPool
from .db import Database, EngineOptions
from .errors import (
    DeadlockError,
    DuplicateKey,
    KeyNotFound,
    MiniDBError,
    TableNotFound,
    TransactionError,
)
from .locks import EXCLUSIVE, SHARED, LockManager
from .log import LogRecord, WriteAheadLog
from .page import BRANCH, LEAF, Page, PageAllocator
from .txn import Transaction, TransactionManager

__all__ = [
    "BTree",
    "BufferPool",
    "Database",
    "EngineOptions",
    "DeadlockError",
    "DuplicateKey",
    "KeyNotFound",
    "MiniDBError",
    "TableNotFound",
    "TransactionError",
    "EXCLUSIVE",
    "SHARED",
    "LockManager",
    "LogRecord",
    "WriteAheadLog",
    "BRANCH",
    "LEAF",
    "Page",
    "PageAllocator",
    "Transaction",
    "TransactionManager",
]
