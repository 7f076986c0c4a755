"""Trace recorders: the bridge between minidb execution and trace records.

``minidb`` calls recorder methods at every page access, latch operation,
log append, and unit of compute work.  A :class:`TraceRecorder` appends the
corresponding records to whatever record list is *current*; the workload
driver switches the current list at epoch and serial-segment boundaries.
Code that would build arguments only to have them discarded checks
``recording`` (False while there is no target) and ``muted`` (True while
the target is :data:`MUTED`) first.

A :class:`NullRecorder` with the same interface lets minidb run untraced
(used by the storage-engine unit tests).

Only a few percent of the records a workload produces are distinct, so
finished traces keep one tuple per distinct record (:func:`intern_records`):
equal records are one object, and a record's identity means nothing.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

from .addressmap import AddressMap, PCRegistry
from .costs import CostModel, default_costs
from .events import (
    EpochTrace,
    ParallelRegion,
    Rec,
    Record,
    SerialSegment,
    TransactionTrace,
    record_instruction_count,
)


class _Muted:
    """Type of :data:`MUTED`."""

    __slots__ = ()


#: Record target of a muted transaction.  Loads, stores, branches and
#: latch acquires intern their PC names, so the :class:`PCRegistry`
#: numbers sites exactly as a recorded run would (later recorded
#: transactions depend on that numbering); nothing else happens, and
#: pending compute is dropped at the next flush.
MUTED = _Muted()

Target = Union[List[Record], _Muted, None]


def intern_records(records: Sequence[Record],
                   table: Dict[Record, Record]) -> Tuple[Record, ...]:
    """``records`` as a tuple in which each record equal to one already
    in ``table`` is replaced by that one (and new ones are added).

    Equal records then share one tuple and its int objects.  The table
    is keyed by value, so ``(BRANCH, pc, True)`` would merge with
    ``(BRANCH, pc, 1)``; every producer writes a bool there, and trace
    JSON holds ``true``/``false``, so no serialized byte changes.
    """
    return tuple(map(table.setdefault, records, records))


def _has_instructions(records: Sequence[Record]) -> bool:
    # Counts are never negative, so "any non-zero" is "sum > 0" without
    # visiting every record.
    return any(map(record_instruction_count, records))


class NullRecorder:
    """Recorder that discards everything; lets minidb run untraced."""

    #: A record target is selected (see :meth:`TraceRecorder.set_target`).
    recording = False
    #: The selected target is :data:`MUTED`.
    muted = False

    def __init__(self):
        self.addr_map = AddressMap()
        self.pcs = PCRegistry()
        self.costs = default_costs()
        #: Index of the epoch currently being recorded (-1 = serial code).
        #: Used by TLS-optimized code paths that keep per-epoch private
        #: buffers (e.g. the per-epoch log buffer optimization).
        self.epoch_hint = -1
        #: Number of thread-local scratch arenas.  Real engines allocate
        #: one arena per worker thread (= per CPU), reused across epochs,
        #: so scratch lines stay warm; epochs map onto arenas round-robin
        #: exactly as they map onto CPUs.
        self.scratch_arenas = 4

    def scratch_addr(self, offset: int) -> int:
        """Address in the current epoch's thread-local scratch arena."""
        if self.epoch_hint < 0:
            owner = 0
        else:
            owner = (self.epoch_hint % self.scratch_arenas) + 1
        return self.addr_map.app_scratch_addr(owner, offset)

    def compute(self, count: int) -> None:
        pass

    def op(self, op_class: int, count: int = 1) -> None:
        pass

    def load(self, addr: int, size: int, pc_name: str) -> None:
        pass

    def store(self, addr: int, size: int, pc_name: str) -> None:
        pass

    def branch(self, pc_name: str, taken: bool) -> None:
        pass

    def latch_acquire(self, latch_id: int, pc_name: str) -> None:
        pass

    def latch_release(self, latch_id: int) -> None:
        pass

    def tls_overhead(self, count: int) -> None:
        pass


class TraceRecorder(NullRecorder):
    """Appends trace records to the currently-selected record list."""

    def __init__(
        self,
        costs: Optional[CostModel] = None,
        addr_map: Optional[AddressMap] = None,
        pcs: Optional[PCRegistry] = None,
    ):
        super().__init__()
        if costs is not None:
            self.costs = costs
        if addr_map is not None:
            self.addr_map = addr_map
        if pcs is not None:
            self.pcs = pcs
        self._current: Target = None
        #: Intern table of every record this recorder's finished
        #: transactions hold (see :func:`intern_records`).
        self.interned: Dict[Record, Record] = {}
        #: Pending COMPUTE count, coalesced into one record at the next
        #: non-compute event (keeps record counts small).
        self._pending_compute = 0
        self._pending_overhead = 0

    # ------------------------------------------------------------------
    # Target selection
    # ------------------------------------------------------------------

    def set_target(self, records: Target) -> None:
        """Direct subsequent records into ``records`` (None = discard,
        :data:`MUTED` = intern PCs only)."""
        self._flush()
        self._current = records
        self.recording = records is not None
        self.muted = records is MUTED

    def _flush(self) -> None:
        if self._current is None or self._current is MUTED:
            self._pending_compute = 0
            self._pending_overhead = 0
            return
        if self._pending_compute:
            self._current.append((Rec.COMPUTE, self._pending_compute))
            self._pending_compute = 0
        if self._pending_overhead:
            self._current.append((Rec.TLS_OVERHEAD, self._pending_overhead))
            self._pending_overhead = 0

    # ------------------------------------------------------------------
    # Recording interface (called by minidb)
    # ------------------------------------------------------------------

    def compute(self, count: int) -> None:
        if count > 0:
            self._pending_compute += count

    def op(self, op_class: int, count: int = 1) -> None:
        cur = self._current
        if cur is None or cur is MUTED:
            return
        self._flush()
        cur.append((Rec.OP, op_class, count))

    def load(self, addr: int, size: int, pc_name: str) -> None:
        cur = self._current
        if cur is None:
            return
        pc = self.pcs.pc(pc_name)
        if cur is not MUTED:
            self._flush()
            cur.append((Rec.LOAD, addr, size, pc))

    def store(self, addr: int, size: int, pc_name: str) -> None:
        cur = self._current
        if cur is None:
            return
        pc = self.pcs.pc(pc_name)
        if cur is not MUTED:
            self._flush()
            cur.append((Rec.STORE, addr, size, pc))

    def branch(self, pc_name: str, taken: bool) -> None:
        cur = self._current
        if cur is None:
            return
        pc = self.pcs.pc(pc_name)
        if cur is not MUTED:
            self._flush()
            cur.append((Rec.BRANCH, pc, taken))

    def latch_acquire(self, latch_id: int, pc_name: str) -> None:
        cur = self._current
        if cur is None:
            return
        pc = self.pcs.pc(pc_name)
        if cur is not MUTED:
            self.compute(self.costs.latch_op)
            self._flush()
            cur.append((Rec.LATCH_ACQ, latch_id, pc))

    def latch_release(self, latch_id: int) -> None:
        cur = self._current
        if cur is None or cur is MUTED:
            return
        self.compute(self.costs.latch_op)
        self._flush()
        cur.append((Rec.LATCH_REL, latch_id))

    def tls_overhead(self, count: int) -> None:
        if count > 0:
            self._pending_overhead += count


class TransactionTraceBuilder:
    """Builds a :class:`TransactionTrace` by steering a recorder.

    Usage by the TPC-C transaction programs::

        builder = TransactionTraceBuilder("new_order", recorder)
        builder.begin_serial()
        ...  # run lookup code under the recorder
        builder.begin_parallel()
        for item in items:
            builder.begin_epoch()
            ...  # run the loop body under the recorder
        builder.end_parallel()
        builder.begin_serial()
        ...  # commit processing
        trace = builder.finish()
    """

    def __init__(self, name: str, recorder: TraceRecorder,
                 tls_mode: bool = True, record: bool = True):
        self.name = name
        self.recorder = recorder
        #: When False, epoch boundaries are ignored and everything lands in
        #: one serial segment (used to build the SEQUENTIAL trace, which is
        #: no TLS instructions at all).
        self.tls_mode = tls_mode
        #: When False, the recorder is pointed at :data:`MUTED` instead
        #: of the segments' record lists: the shared PC registry interns
        #: exactly what a recorded run would, but no record is built, and
        #: ``finish`` returns an empty placeholder transaction.  That is
        #: what lets the sampled huge-scale driver path run hundreds of
        #: thousands of transactions while retaining only the sampled
        #: windows.
        self.record = record
        self._trace = TransactionTrace(name=name)
        self._region: Optional[ParallelRegion] = None
        self._serial: Optional[SerialSegment] = None
        self._epoch_counter = 0

    def begin_serial(self) -> None:
        self._close_region()
        if self._serial is None:
            self._serial = SerialSegment()
            self._trace.segments.append(self._serial)
        self.recorder.set_target(self._target(self._serial.records))
        self.recorder.epoch_hint = -1

    def begin_parallel(self) -> None:
        if not self.tls_mode:
            self.begin_serial()
            return
        self._close_serial()
        self._region = ParallelRegion()
        self._trace.segments.append(self._region)
        self.recorder.set_target(None)

    def begin_epoch(self) -> None:
        if not self.tls_mode:
            # Sequential build: the "epoch" body is just more serial code.
            if self._serial is None:
                self.begin_serial()
            return
        if self._region is None:
            raise RuntimeError("begin_epoch outside a parallel region")
        epoch = EpochTrace(epoch_id=self._epoch_counter)
        self._epoch_counter += 1
        self._region.epochs.append(epoch)
        self.recorder.set_target(self._target(epoch.records))
        self.recorder.epoch_hint = epoch.epoch_id
        # Thread-spawn software overhead (TLS-transformed code only).
        self.recorder.tls_overhead(self.recorder.costs.tls_spawn)

    def end_parallel(self) -> None:
        if not self.tls_mode:
            return
        self._close_region()
        self.recorder.set_target(None)

    def finish(self) -> TransactionTrace:
        self._close_region()
        self._close_serial()
        self.recorder.set_target(None)
        if not self.record:
            # Muted transaction: keep a placeholder so transaction
            # indices stay aligned with the full run.
            return TransactionTrace(name=self.name)
        # Drop empty segments so coverage numbers aren't polluted, and
        # freeze the records of the rest into tuples of interned records:
        # CPython stops tracking a tuple whose items are all untracked,
        # so full collections stop walking them.
        table = self.recorder.interned
        kept = []
        for seg in self._trace.segments:
            if isinstance(seg, SerialSegment):
                if _has_instructions(seg.records):
                    seg.records = intern_records(seg.records, table)
                    kept.append(seg)
            elif any(_has_instructions(e.records) for e in seg.epochs):
                for epoch in seg.epochs:
                    epoch.records = intern_records(epoch.records, table)
                kept.append(seg)
        self._trace.segments = kept
        return self._trace

    def _target(self, records: List[Record]) -> Target:
        return records if self.record else MUTED

    def _close_region(self) -> None:
        if self._region is not None:
            self.recorder.set_target(None)
            self._region = None

    def _close_serial(self) -> None:
        if self._serial is not None:
            self.recorder.set_target(None)
            self._serial = None
