"""Two-phase row lock manager.

TPC-C rows are locked for transaction isolation.  The paper's runs
execute one transaction at a time (latency, not throughput), so row locks
are never *logically* contended — but in an unoptimized engine every
acquire/release still **stores** to a shared lock-table bucket, creating
address-level dependences between concurrent epochs whose rows hash to
the same bucket.  The optimized engine (``bucket_stores=False``) models
the paper's lock-related software changes: epochs consult the bucket
read-only and defer the bookkeeping writes to commit.

The manager itself is fully functional (shared/exclusive modes, conflict
detection, wait-for-based deadlock detection) and unit-tested; multi-
transaction scenarios exercise it directly even though the TPC-C traces
run one transaction at a time.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from ..trace.recorder import NullRecorder
from .errors import DeadlockError

SHARED = "S"
EXCLUSIVE = "X"


@dataclass
class LockEntry:
    holders: Dict[int, str] = field(default_factory=dict)  # txn -> mode
    waiters: List[Tuple[int, str]] = field(default_factory=list)


class LockManager:
    """Hash-bucketed row lock table."""

    def __init__(
        self,
        recorder: NullRecorder,
        n_buckets: int = 256,
        bucket_stores: bool = True,
    ):
        self.recorder = recorder
        self.n_buckets = n_buckets
        self.bucket_stores = bucket_stores
        self._locks: Dict[Tuple, LockEntry] = {}
        #: txn -> set of resources it holds (for release_all).
        self._held: Dict[int, Set[Tuple]] = {}
        #: txn -> resource it is waiting for (deadlock detection).
        self._waiting: Dict[int, Tuple] = {}
        self.acquisitions = 0
        self.conflicts = 0

    def _bucket_of(self, resource: Tuple) -> int:
        # zlib.crc32, not hash(): built-in string hashing is randomized
        # per process (PYTHONHASHSEED), and bucket indices become trace
        # addresses — they must be stable across processes so parallel
        # workers and the on-disk trace cache see identical traces.
        return zlib.crc32(repr(resource).encode()) % self.n_buckets

    def _instrument(self, resource: Tuple, write: bool) -> None:
        rec = self.recorder
        rec.compute(rec.costs.lock_request)
        addr = rec.addr_map.lock_bucket_addr(self._bucket_of(resource))
        rec.load(addr, 8, "locks.bucket_read")
        if write:
            if self.bucket_stores:
                rec.store(addr, 8, "locks.bucket_write")
            else:
                # TLS-optimized: the grant is staged in a per-thread lock
                # cache and folded into the shared table at commit.
                rec.store(
                    rec.scratch_addr(
                        0x3000 + (self._bucket_of(resource) % 256) * 8
                    ),
                    8,
                    "locks.private_grant",
                )

    @staticmethod
    def _compatible(held_mode: str, req_mode: str) -> bool:
        return held_mode == SHARED and req_mode == SHARED

    def acquire(self, txn_id: int, resource: Tuple, mode: str = EXCLUSIVE
                ) -> bool:
        """Try to acquire; returns False (and enqueues) on conflict.

        Raises :class:`DeadlockError` if granting the wait would close a
        cycle in the waits-for graph (the requester is the victim).
        """
        if mode not in (SHARED, EXCLUSIVE):
            raise ValueError(f"bad lock mode {mode!r}")
        self._instrument(resource, write=True)
        entry = self._locks.setdefault(resource, LockEntry())
        held = entry.holders.get(txn_id)
        if held == EXCLUSIVE or held == mode:
            return True  # re-entrant / already sufficient
        others = [m for t, m in entry.holders.items() if t != txn_id]
        if all(self._compatible(m, mode) for m in others):
            entry.holders[txn_id] = mode
            self._held.setdefault(txn_id, set()).add(resource)
            self.acquisitions += 1
            return True
        self.conflicts += 1
        if self._would_deadlock(txn_id, resource):
            raise DeadlockError(
                f"txn {txn_id} waiting for {resource!r} closes a cycle"
            )
        entry.waiters.append((txn_id, mode))
        self._waiting[txn_id] = resource
        return False

    def _would_deadlock(self, txn_id: int, resource: Tuple) -> bool:
        """DFS over the waits-for graph from the would-be holders."""
        visited: Set[int] = set()
        stack = [
            t for t in self._locks.get(resource, LockEntry()).holders
            if t != txn_id
        ]
        while stack:
            t = stack.pop()
            if t == txn_id:
                return True
            if t in visited:
                continue
            visited.add(t)
            waiting_for = self._waiting.get(t)
            if waiting_for is not None:
                stack.extend(
                    h for h in self._locks[waiting_for].holders
                    if h not in visited
                )
        return False

    def release_all(self, txn_id: int) -> List[Tuple[int, Tuple]]:
        """Release every lock of a transaction (2PL release phase).

        Returns (txn, resource) pairs granted to former waiters.
        """
        granted: List[Tuple[int, Tuple]] = []
        for resource in sorted(self._held.pop(txn_id, set()),
                               key=repr):
            self._instrument(resource, write=True)
            entry = self._locks[resource]
            entry.holders.pop(txn_id, None)
            granted.extend(self._grant_waiters(resource, entry))
        self._waiting.pop(txn_id, None)
        return granted

    def _grant_waiters(self, resource, entry) -> List[Tuple[int, Tuple]]:
        granted = []
        while entry.waiters:
            txn_id, mode = entry.waiters[0]
            others = [m for t, m in entry.holders.items() if t != txn_id]
            if all(self._compatible(m, mode) for m in others):
                entry.waiters.pop(0)
                entry.holders[txn_id] = mode
                self._held.setdefault(txn_id, set()).add(resource)
                self._waiting.pop(txn_id, None)
                granted.append((txn_id, resource))
                if mode == EXCLUSIVE:
                    break
            else:
                break
        return granted

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def holders(self, resource: Tuple) -> Dict[int, str]:
        return dict(self._locks.get(resource, LockEntry()).holders)

    def held_by(self, txn_id: int) -> Set[Tuple]:
        return set(self._held.get(txn_id, set()))
