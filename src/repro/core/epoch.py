"""Epoch (speculative thread) execution state, including sub-threads.

An :class:`EpochExecution` is the live state of one speculative thread on
one CPU: a cursor into its trace, the stack of sub-thread checkpoints, the
per-sub-thread store masks used for exposed-load detection, the latches it
holds, and per-sub-thread pending cycle counters that are classified as
good or Failed when the epoch commits or is rewound.

Sub-threads (Section 2.2)
-------------------------
A sub-thread begins with a lightweight checkpoint: here, the trace cursor
and the clock, standing in for the paper's shadow register file (which the
paper models at zero cycles; the cost is configurable).  Sub-threads of an
epoch run serially and in order, so there are never violations *between*
them; the checkpoint list is strictly append-only until a rewind truncates
it.  Each sub-thread owns one hardware thread context (its identity in the
L2's speculative-state bits).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..trace.events import EpochTrace
from .accounting import CycleCounters


class EpochStatus:
    PENDING = "pending"      # not yet started
    RUNNING = "running"
    FINISHED = "finished"    # done executing, awaiting commit token
    COMMITTED = "committed"


@dataclass(slots=True)
class SubThreadCheckpoint:
    """State captured at a sub-thread boundary (the rewind target)."""

    index: int                  # sub-thread index within the epoch
    ctx: int                    # hardware thread context id
    cursor: int                 # trace record index at the checkpoint
    offset: int                 # progress within a partially-consumed
                                # COMPUTE batch record at the checkpoint
    start_cycle: float          # when this sub-thread (last) began
    #: Word masks of this sub-thread's own stores, line -> mask.  Exposure
    #: of a load is tested against the union over sub-threads 0..current.
    store_mask: Dict[int, int] = field(default_factory=dict)
    #: Latches acquired during this sub-thread (released on rewind).
    latches: List[int] = field(default_factory=list)
    #: Cycles accrued while executing this sub-thread, pending
    #: classification at commit (good) or rewind (Failed).
    pending: CycleCounters = field(default_factory=CycleCounters)


class EpochExecution:
    """Live state of one epoch on one CPU."""

    __slots__ = (
        "trace",
        "order",
        "cpu",
        "speculative",
        "status",
        "cursor",
        "offset",
        "subthreads",
        "instrs_since_checkpoint",
        "violations_suffered",
        "restarts",
        "homefree",
        "finish_cycle",
        "last_rewound_start",
        "failed_intervals",
        "compiled",
        "records",
        "n_records",
        "store_union",
    )

    def __init__(
        self,
        trace: EpochTrace,
        order: int,
        cpu: int,
        speculative: bool = True,
    ):
        self.trace = trace
        #: ``trace.records`` / its length, cached for the hot dispatch
        #: loop (two attribute hops and a len() per event add up).
        self.records = trace.records
        self.n_records = len(trace.records)
        self.order = order
        self.cpu = cpu
        #: False when TLS is off for this epoch (NO SPECULATION mode) or
        #: once the epoch holds the homefree token.
        self.speculative = speculative
        self.status = EpochStatus.PENDING
        self.cursor = 0
        #: Instructions already consumed from a COMPUTE batch record at
        #: ``cursor`` (large batches are split so sub-thread boundaries
        #: land at the configured spacing).
        self.offset = 0
        self.subthreads: List[SubThreadCheckpoint] = []
        #: Instructions retired since the last sub-thread boundary
        #: (drives the every-n-instructions sub-thread start policy).
        self.instrs_since_checkpoint = 0
        self.violations_suffered = 0
        self.restarts = 0
        self.homefree = not speculative
        self.finish_cycle: Optional[float] = None
        #: Wall time at which the most recently rewound sub-thread had
        #: started (read by the machine for exact Failed attribution).
        self.last_rewound_start = 0.0
        #: Disjoint, sorted wall intervals already charged as Failed for
        #: this epoch (see :meth:`charge_failed_interval`).
        self.failed_intervals: List[Tuple[float, float]] = []
        #: Compiled entries parallel to ``trace.records`` (see
        #: :mod:`repro.trace.compile`), set by the machine when the epoch
        #: starts; every entry is None under interpreted replay.  Replay
        #: metadata only — never protocol state.
        self.compiled: Optional[Sequence] = None
        #: Union of every live sub-thread's store mask, per line — makes
        #: :meth:`covers_load` a single dict probe.  Rebuilt from the
        #: surviving sub-threads on rewind.
        self.store_union: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Sub-thread management
    # ------------------------------------------------------------------

    @property
    def current_subthread(self) -> SubThreadCheckpoint:
        return self.subthreads[-1]

    @property
    def current_ctx(self) -> Optional[int]:
        if not self.speculative or not self.subthreads:
            return None
        return self.subthreads[-1].ctx

    def start_subthread(self, ctx: int, now: float) -> SubThreadCheckpoint:
        """Open a new sub-thread with a checkpoint at the current cursor."""
        cp = SubThreadCheckpoint(
            index=len(self.subthreads),
            ctx=ctx,
            cursor=self.cursor,
            offset=self.offset,
            start_cycle=now,
        )
        self.subthreads.append(cp)
        self.instrs_since_checkpoint = 0
        return cp

    def rewind_to(self, subthread_idx: int, now: float) -> Tuple[
        List[int], List[int], CycleCounters
    ]:
        """Rewind to the *start* of sub-thread ``subthread_idx``.

        Discards sub-threads after it and resets it to its checkpoint.
        Returns ``(squashed_ctxs, latches_to_release, failed_cycles)``:
        the hardware contexts whose L2 state must be squashed (the rewound
        sub-thread's own context plus all later ones), latches acquired by
        rewound code, and the pending cycles now classified as Failed.
        """
        if subthread_idx >= len(self.subthreads):
            raise ValueError(
                f"rewind to sub-thread {subthread_idx} but only "
                f"{len(self.subthreads)} exist"
            )
        rewound = self.subthreads[subthread_idx:]
        target = self.subthreads[subthread_idx]
        self.last_rewound_start = target.start_cycle

        squashed_ctxs = [cp.ctx for cp in rewound]
        latches: List[int] = []
        failed = CycleCounters()
        for cp in rewound:
            latches.extend(cp.latches)
            failed.merge(cp.pending)

        # Truncate and reset the target checkpoint for re-execution.
        del self.subthreads[subthread_idx + 1:]
        self.cursor = target.cursor
        self.offset = target.offset
        target.start_cycle = now
        target.store_mask.clear()
        # Rebuild the epoch-wide store-mask union from the survivors.
        su: Dict[int, int] = {}
        for cp in self.subthreads:
            for line, m in cp.store_mask.items():
                su[line] = su.get(line, 0) | m
        self.store_union = su
        target.latches.clear()
        target.pending = CycleCounters()
        self.instrs_since_checkpoint = 0
        self.violations_suffered += 1
        if subthread_idx == 0:
            self.restarts += 1
        if self.status == EpochStatus.FINISHED:
            self.status = EpochStatus.RUNNING
            self.finish_cycle = None
        return squashed_ctxs, latches, failed

    def all_ctxs(self) -> List[int]:
        return [cp.ctx for cp in self.subthreads]

    # ------------------------------------------------------------------
    # Store masks / exposed-load test
    # ------------------------------------------------------------------

    def note_store(self, line: int, mask: int) -> None:
        sm = self.current_subthread.store_mask
        sm[line] = sm.get(line, 0) | mask
        su = self.store_union
        su[line] = su.get(line, 0) | mask

    def covers_load(self, line: int, mask: int) -> bool:
        """True if the epoch's own earlier stores cover every loaded word.

        Such a load is *not exposed*: the value was produced within the
        epoch, so no cross-epoch dependence tracking is needed for it.
        """
        written = self.store_union.get(line)
        return written is not None and not (mask & ~written)

    # ------------------------------------------------------------------
    # Progress
    # ------------------------------------------------------------------

    def retire(self, instructions: int) -> None:
        self.instrs_since_checkpoint += instructions

    def accrue(self, category: str, cycles: float) -> None:
        if self.subthreads:
            self.current_subthread.pending.add(category, cycles)

    @property
    def done(self) -> bool:
        return self.cursor >= self.n_records

    def charge_failed_interval(self, lo: float, hi: float) -> float:
        """Record [lo, hi] as Failed wall time; returns the newly-charged
        length (the part not already covered by earlier charges).

        Used by the machine for exact Failed attribution: a rewind wastes
        the wall interval from the rewound sub-thread's start to the
        restart instant, but repeated rewinds of one epoch can overlap
        (e.g. a deeper rewind after a shallow one), so already-charged
        sub-intervals must not be charged twice.
        """
        if hi <= lo:
            return 0.0
        charge = hi - lo
        merged: List[Tuple[float, float]] = []
        new_lo, new_hi = lo, hi
        for a, b in self.failed_intervals:
            if b < new_lo or a > new_hi:
                merged.append((a, b))
                continue
            # Overlap with the new interval: subtract and absorb.
            charge -= max(0.0, min(b, new_hi) - max(a, new_lo))
            new_lo = min(new_lo, a)
            new_hi = max(new_hi, b)
        merged.append((new_lo, new_hi))
        merged.sort()
        self.failed_intervals = merged
        return max(0.0, charge)

    def pending_cycles(self) -> CycleCounters:
        return CycleCounters.sum_of(cp.pending for cp in self.subthreads)

    def drain_pending(self) -> CycleCounters:
        """Collect and clear all pending counters (at commit)."""
        total = self.pending_cycles()
        for cp in self.subthreads:
            cp.pending = CycleCounters()
        return total
