"""Trace record types for the trace-driven TLS simulator.

A trace is a sequence of compact records.  Each record is a plain tuple whose
first element is one of the ``Rec`` kind constants below; tuples keep the
per-record overhead small, which matters because a single benchmark run
replays hundreds of thousands of records (several times, after violations).

Record layouts
--------------

``(Rec.COMPUTE, count)``
    *count* dynamic single-cycle instructions (ALU, logic, address
    generation).  The CPU model retires them at the issue width.

``(Rec.OP, op_class, count)``
    *count* dynamic multi-cycle instructions of ``op_class`` (one of the
    ``Op`` constants; latency comes from the machine config, Table 1).

``(Rec.LOAD, addr, size, pc)`` / ``(Rec.STORE, addr, size, pc)``
    A data memory reference.  ``addr`` is a synthetic physical byte address,
    ``size`` is in bytes, ``pc`` identifies the static instruction (used by
    the branch-free dependence profiler and the exposed-load table).

``(Rec.BRANCH, pc, taken)``
    A conditional branch; the GShare predictor is consulted and a
    misprediction charges the pipeline-flush penalty.

``(Rec.LATCH_ACQ, latch_id, pc)`` / ``(Rec.LATCH_REL, latch_id)``
    Acquire/release of a short-duration latch.  Latch operations execute as
    *escaped* speculation (immediately globally visible); contention shows
    up as synchronization stall cycles.

``(Rec.TLS_OVERHEAD, count)``
    Software instructions added by the TLS transformation (thread spawn and
    management code).  Timing-wise identical to COMPUTE, but accounted
    separately so the TLS-SEQ software-overhead bar can be reported.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple


class Rec:
    """Trace record kind constants (first tuple element of every record)."""

    COMPUTE = 0
    OP = 1
    LOAD = 2
    STORE = 3
    BRANCH = 4
    LATCH_ACQ = 5
    LATCH_REL = 6
    TLS_OVERHEAD = 7

    NAMES = {
        COMPUTE: "COMPUTE",
        OP: "OP",
        LOAD: "LOAD",
        STORE: "STORE",
        BRANCH: "BRANCH",
        LATCH_ACQ: "LATCH_ACQ",
        LATCH_REL: "LATCH_REL",
        TLS_OVERHEAD: "TLS_OVERHEAD",
    }


class Op:
    """Multi-cycle operation classes, matching Table 1 of the paper."""

    INT_MUL = 0
    INT_DIV = 1
    FP = 2
    FP_DIV = 3
    FP_SQRT = 4
    MEM_BARRIER = 5

    NAMES = {
        INT_MUL: "INT_MUL",
        INT_DIV: "INT_DIV",
        FP: "FP",
        FP_DIV: "FP_DIV",
        FP_SQRT: "FP_SQRT",
        MEM_BARRIER: "MEM_BARRIER",
    }


Record = Tuple  # (kind, ...) — see module docstring for layouts.


def record_instruction_count(rec: Record) -> int:
    """Number of dynamic instructions a single record represents."""
    kind = rec[0]
    if kind in (Rec.COMPUTE, Rec.TLS_OVERHEAD):
        return rec[1]
    if kind == Rec.OP:
        return rec[2]
    return 1


@dataclass
class EpochTrace:
    """The dynamic instruction trace of one speculative thread (epoch).

    Epochs are the unit of TLS parallelism: within one parallel region,
    epoch *i* is logically earlier than epoch *i+1*, and TLS must make the
    parallel execution equivalent to running the epochs in index order.
    """

    epoch_id: int
    #: A tuple once recorded or loaded (see TransactionTraceBuilder.finish).
    records: Sequence[Record] = field(default_factory=list)

    _instr_count: int = field(default=-1, repr=False)

    @property
    def instruction_count(self) -> int:
        """Total dynamic instructions in this epoch (cached)."""
        if self._instr_count < 0:
            self._instr_count = sum(
                record_instruction_count(r) for r in self.records
            )
        return self._instr_count


def _segment_getstate(self) -> dict:
    """Pickle segments without their attached compiled-entry cache.

    The machine caches lowered entry lists on the segment object
    (``_compile_cache``, see repro.trace.compile), the only place a
    compiled region is kept.  They are a pure function of the records
    and are rebuilt wherever the trace lands, so shipping a trace to a
    harness worker must not serialize them per job.
    """
    state = self.__dict__
    if "_compile_cache" in state:
        state = {k: v for k, v in state.items() if k != "_compile_cache"}
    return state


@dataclass
class SerialSegment:
    """A non-parallelized stretch of the transaction (runs on one CPU)."""

    records: Sequence[Record] = field(default_factory=list)

    __getstate__ = _segment_getstate

    @property
    def instruction_count(self) -> int:
        return sum(record_instruction_count(r) for r in self.records)


@dataclass
class ParallelRegion:
    """A parallelized loop: an ordered list of epochs."""

    epochs: List[EpochTrace] = field(default_factory=list)

    __getstate__ = _segment_getstate

    @property
    def instruction_count(self) -> int:
        return sum(e.instruction_count for e in self.epochs)


@dataclass
class TransactionTrace:
    """One transaction = alternating serial segments and parallel regions.

    ``segments`` holds ``SerialSegment`` and ``ParallelRegion`` objects in
    execution order.  The *coverage* of a transaction is the fraction of its
    dynamic instructions inside parallel regions (Table 2).
    """

    name: str
    segments: list = field(default_factory=list)

    @property
    def instruction_count(self) -> int:
        return sum(s.instruction_count for s in self.segments)

    @property
    def parallel_instruction_count(self) -> int:
        return sum(
            s.instruction_count
            for s in self.segments
            if isinstance(s, ParallelRegion)
        )

    @property
    def coverage(self) -> float:
        """Fraction of dynamic instructions inside parallelized regions."""
        total = self.instruction_count
        if total == 0:
            return 0.0
        return self.parallel_instruction_count / total

    def epochs(self) -> List[EpochTrace]:
        """All epochs across all parallel regions, in order."""
        out: List[EpochTrace] = []
        for seg in self.segments:
            if isinstance(seg, ParallelRegion):
                out.extend(seg.epochs)
        return out

    def epoch_count(self) -> int:
        return len(self.epochs())


@dataclass
class WorkloadTrace:
    """A sequence of transaction traces forming one benchmark run."""

    name: str
    transactions: List[TransactionTrace] = field(default_factory=list)

    @property
    def instruction_count(self) -> int:
        return sum(t.instruction_count for t in self.transactions)

    @property
    def coverage(self) -> float:
        total = self.instruction_count
        if total == 0:
            return 0.0
        par = sum(t.parallel_instruction_count for t in self.transactions)
        return par / total

    def average_epoch_size(self) -> float:
        """Average dynamic instructions per epoch (Table 2 'thread size')."""
        epochs = [e for t in self.transactions for e in t.epochs()]
        if not epochs:
            return 0.0
        return sum(e.instruction_count for e in epochs) / len(epochs)

    def epoch_count(self) -> int:
        return sum(t.epoch_count() for t in self.transactions)

    def epochs_per_transaction(self) -> float:
        if not self.transactions:
            return 0.0
        return self.epoch_count() / len(self.transactions)
