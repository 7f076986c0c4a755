"""Write-ahead log.

The WAL is the single hottest shared structure in an unoptimized engine:
every update appends a record, and every append reads *and writes* the
log-tail pointer, making all concurrent epochs serially dependent on one
word.  The TLS optimization from the paper's database work gives each
epoch a **private log buffer** (addressed in the epoch's scratch region)
whose contents are spliced into the shared log at transaction commit, in
serial code — removing the dependence from the parallel region.

Both behaviours are implemented; ``shared_tail`` selects them.  The log
content itself is real (records are retained) so tests can assert on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Tuple

from ..trace.recorder import NullRecorder


@dataclass(frozen=True)
class LogRecord:
    lsn: int
    txn_id: int
    kind: str
    payload: Tuple[Any, ...]

    def size_bytes(self) -> int:
        return 24 + 8 * len(self.payload)


class WriteAheadLog:
    """Append-only log with shared-tail or per-epoch-buffer behaviour."""

    def __init__(self, recorder: NullRecorder, shared_tail: bool = True):
        self.recorder = recorder
        #: True: every append updates the global tail pointer (the
        #: unoptimized engine).  False: appends go to per-epoch private
        #: buffers, published at commit.
        self.shared_tail = shared_tail
        self.records: List[LogRecord] = []
        self._next_lsn = 1
        self._tail_bytes = 0
        #: epoch_hint -> (buffered records, buffered bytes)
        self._epoch_buffers: dict = {}
        #: epoch_hint -> bytes of log space already reserved.  Private
        #: buffers still reserve shared log space (and LSN ranges) in
        #: fixed-size chunks — the residual dependence the paper's tuning
        #: could not remove.
        self._reserved: dict = {}
        self.reservation_chunk = 4096
        self.appends = 0
        self.publishes = 0

    # ------------------------------------------------------------------
    # Appends
    # ------------------------------------------------------------------

    def append(self, txn_id: int, kind: str, payload: Tuple[Any, ...]):
        """Append one record (instrumented).

        With a shared tail this immediately claims log space; with
        private buffers the record is staged in the current epoch's
        scratch region and claims space at :meth:`publish_epoch_buffers`.
        """
        rec = self.recorder
        record = LogRecord(
            lsn=self._next_lsn, txn_id=txn_id, kind=kind,
            payload=tuple(payload),
        )
        self._next_lsn += 1
        self.appends += 1
        nbytes = record.size_bytes()
        rec.compute(rec.costs.log_append)
        rec.compute(rec.costs.log_copy_per_byte * nbytes)
        if self.shared_tail:
            amap = rec.addr_map
            rec.load(amap.log_tail_addr(), 8, "log.tail_read")
            rec.store(amap.log_tail_addr(), 8, "log.tail_write")
            rec.store(
                amap.log_buffer_addr(self._tail_bytes), nbytes, "log.copy"
            )
            self._tail_bytes += nbytes
            self.records.append(record)
        else:
            epoch = rec.epoch_hint
            amap = rec.addr_map
            buffered, offset = self._epoch_buffers.setdefault(
                epoch, ([], 0)
            )
            if offset + nbytes > self._reserved.get(epoch, 0):
                # Residual dependence: private buffers still reserve LSN
                # ranges / log space from the shared sequence counter in
                # fixed-size chunks — log ordering cannot be privatized
                # away, so every chunk boundary is a shared
                # read-modify-write spread across the epoch's lifetime.
                rec.load(amap.log_tail_addr() + 16, 8, "log.lsn_reserve_read")
                rec.store(
                    amap.log_tail_addr() + 16, 8, "log.lsn_reserve_write"
                )
                self._reserved[epoch] = (
                    self._reserved.get(epoch, 0) + self.reservation_chunk
                )
            rec.store(
                rec.scratch_addr(0x8000 + offset),
                nbytes,
                "log.private_copy",
            )
            buffered.append(record)
            self._epoch_buffers[epoch] = (buffered, offset + nbytes)
        return record

    def publish_epoch_buffers(self) -> int:
        """Splice all private epoch buffers into the shared log.

        Called from serial code at transaction commit.  Returns the
        number of records published.
        """
        rec = self.recorder
        amap = rec.addr_map
        published = 0
        for epoch in sorted(self._epoch_buffers):
            buffered, nbytes = self._epoch_buffers[epoch]
            if not buffered:
                continue
            rec.load(amap.log_tail_addr(), 8, "log.publish_tail_read")
            rec.store(amap.log_tail_addr(), 8, "log.publish_tail_write")
            rec.compute(rec.costs.log_copy_per_byte * nbytes)
            rec.store(
                amap.log_buffer_addr(self._tail_bytes), nbytes,
                "log.publish_copy",
            )
            self._tail_bytes += nbytes
            self.records.extend(buffered)
            published += len(buffered)
            self.publishes += 1
        self._epoch_buffers.clear()
        self._reserved.clear()
        return published

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def tail_bytes(self) -> int:
        return self._tail_bytes

    def records_for(self, txn_id: int) -> List[LogRecord]:
        return [r for r in self.records if r.txn_id == txn_id]

    def pending_epoch_records(self) -> int:
        return sum(len(b) for b, _ in self._epoch_buffers.values())
