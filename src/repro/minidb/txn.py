"""Transactions: begin/commit bookkeeping over the lock manager and WAL."""

from __future__ import annotations

from typing import Tuple

from ..trace.recorder import NullRecorder
from .errors import TransactionError
from .locks import EXCLUSIVE

ACTIVE = "active"
COMMITTED = "committed"
ABORTED = "aborted"


class Transaction:
    """One database transaction (2PL + WAL)."""

    def __init__(self, txn_id: int, db: "Database"):
        self.txn_id = txn_id
        self.db = db
        self.state = ACTIVE

    def _check_active(self) -> None:
        if self.state != ACTIVE:
            raise TransactionError(
                f"txn {self.txn_id} is {self.state}, not active"
            )

    def lock(self, resource: Tuple, mode: str = EXCLUSIVE) -> None:
        self._check_active()
        self.db.locks.acquire(self.txn_id, resource, mode)

    def log(self, kind: str, payload: Tuple) -> None:
        self._check_active()
        self.db.log.append(self.txn_id, kind, payload)

    def commit(self) -> None:
        self._check_active()
        rec = self.db.recorder
        rec.compute(rec.costs.txn_commit)
        self.db.log.append(self.txn_id, "commit", ())
        self.db.locks.release_all(self.txn_id)
        self.state = COMMITTED

    def abort(self) -> None:
        self._check_active()
        self.db.log.append(self.txn_id, "abort", ())
        self.db.locks.release_all(self.txn_id)
        self.state = ABORTED


class TransactionManager:
    """Allocates transaction ids (a shared counter — instrumented)."""

    def __init__(self, recorder: NullRecorder):
        self.recorder = recorder
        self._next_id = 1

    def begin(self, db: "Database") -> Transaction:
        rec = self.recorder
        rec.compute(rec.costs.txn_begin)
        rec.load(rec.addr_map.txn_counter_addr(), 8, "txn.next_id_read")
        rec.store(rec.addr_map.txn_counter_addr(), 8, "txn.next_id_write")
        txn = Transaction(self._next_id, db)
        self._next_id += 1
        return txn
