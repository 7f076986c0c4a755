"""The simulated chip-multiprocessor.

``Machine`` replays a :class:`~repro.trace.events.WorkloadTrace` on a CMP
of ``n_cpus`` cores with private write-through L1s and a shared
speculative L2, under the TLS protocol implemented by
:class:`~repro.core.engine.TLSEngine`.

The simulation is discrete-event: a global heap orders per-CPU "next
record" events by cycle, so every memory reference, latch operation, and
violation is processed in global time order.  Events at the same cycle
are processed in CPU-index order — a canonical tie-break independent of
scheduling history.  One event loop (:mod:`repro.sim.engine_core`)
dispatches every record and schedules each CPU's next event.  With
compiled traces (:mod:`repro.trace.compile`, the default) it walks
precompiled line tuples and chains a CPU's events in-line; interpreted
replay (``compile_traces=False``) does the per-line work of loads and
stores in :meth:`Machine._do_load` / :meth:`Machine._do_store`, the
reference memory path, and pushes every event through the heap.
Everything else about a record, the load prelude, retirement, the
observer call and the accounting included, has one copy in the loop.
Both interleave CPUs identically.

Scheduling model: a parallel region's epochs are assigned to CPUs in
logical order, round-robin; a CPU picks up the next unstarted epoch only
after its current epoch commits (its L1 and its hardware thread contexts
hold that epoch's state until then).  Serial segments run on CPU 0 while
the other CPUs idle.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.accounting import Category, CycleCounters
from ..core.engine import RewindAction, TLSEngine
from ..core.epoch import EpochExecution, EpochStatus
from ..core.latches import LatchTable
from ..cpu.pipeline import CorePipeline
from ..memory.l1 import L1Cache
from ..memory.l2 import COMMITTED, SpeculativeL2
from ..memory.timing import MemorySystemTiming
from ..trace.compile import compile_region
from ..trace.events import (
    EpochTrace,
    ParallelRegion,
    Rec,
    SerialSegment,
    WorkloadTrace,
)
from . import engine_core
from .config import MachineConfig
from .stats import SimulationStats
from .timeline import (
    COMMIT,
    EPOCH_START,
    FINISH,
    STALL_BEGIN,
    STALL_END,
    VIOLATION,
    TimelineEvent,
)


def _clip_lines(geom, addr: int, size: int):
    """Yield ``(line, sub_addr, sub_size)`` for each line an access
    touches: the access clipped to that line."""
    line_size = geom.line_size
    access_end = addr + (size if size > 1 else 1)
    for line in geom.lines_touched(addr, size):
        sub_addr = addr if addr >= line else line
        sub_end = line + line_size
        if access_end < sub_end:
            sub_end = access_end
        sub_size = sub_end - sub_addr
        if sub_size < 1:
            sub_size = 1
        yield line, sub_addr, sub_size


class _CPU:
    """Per-core simulation state."""

    __slots__ = (
        "index",
        "pipeline",
        "l1",
        "epoch",
        "event_version",
        "blocked_latch",
        "block_start",
        "sync_line",
        "sync_skip",
        "totals",
        "outstanding",
        "hoist",
    )

    def __init__(self, index: int, config: MachineConfig):
        self.index = index
        self.pipeline = CorePipeline(config.pipeline)
        self.l1 = L1Cache(config.l1_geometry())
        self.epoch: Optional[EpochExecution] = None
        self.event_version = 0
        self.blocked_latch: Optional[int] = None
        self.block_start = 0.0
        #: Line this CPU's load is synchronizing on (predicted-violating
        #: load policy), or None.
        self.sync_line: Optional[int] = None
        #: Skip the synchronization check once (set when woken).
        self.sync_skip = False
        self.totals = CycleCounters()
        #: Outstanding load-miss completion times (overlap_loads mode),
        #: oldest first, paired with the retired-instruction count when
        #: each miss was issued.
        self.outstanding: List[Tuple[float, int]] = []
        #: Per-region tuple of hot dispatch bindings; rebuilt by
        #: _run_region, unpacked by the event loop once per heap event.
        self.hoist: Optional[tuple] = None


class Machine:
    """A simulated CMP executing one workload trace."""

    def __init__(self, config: Optional[MachineConfig] = None,
                 record_events: bool = False, observer=None,
                 tracer=None):
        self.config = config or MachineConfig()
        #: Timeline events (see repro.sim.timeline); empty unless
        #: record_events is True — recording costs time and memory.
        self.record_events = record_events
        self.events: List[TimelineEvent] = []
        #: Optional commit-log observer (repro.verify.observer): receives
        #: on_epoch_start / on_op / on_rewind / on_commit callbacks.
        self.observer = observer
        #: Optional repro.obs.tracer.SpanTracer.  Only segment, compile
        #: and warm granularity is traced — never a per-record loop — and
        #: every producer site is guarded by ``tracer is not None``, so
        #: an untraced run executes the original code path.
        self.tracer = tracer
        self._invariants = None
        if self.config.check_invariants:
            # Imported lazily: repro.verify imports repro.sim.
            from ..verify.invariants import InvariantChecker

            self._invariants = InvariantChecker(
                interval=self.config.invariant_interval
            )
        self.l2 = SpeculativeL2(
            geometry=self.config.l2_geometry(),
            directory=None,  # bound to the engine's directory below
            victim_entries=self.config.victim_entries,
            line_granularity_loads=self.config.tls.line_granularity_loads,
        )
        self.engine = TLSEngine(
            l2=self.l2, n_cpus=self.config.n_cpus, config=self.config.tls
        )
        # Not the engine itself: the engine holds the L2, and an L2
        # holding the engine back would make every finished Machine
        # cyclic garbage that only a full collection frees.
        self.l2.directory = self.engine.directory
        self.msys = MemorySystemTiming(
            l2_banks=self.config.l2_banks,
            l2_bank_occupancy=self.config.l2_bank_occupancy,
            line_size=self.config.line_size,
            l2_latency=self.config.l2_latency,
            memory_latency=self.config.memory_latency,
            memory_gap=self.config.memory_gap,
        )
        self.latches = LatchTable()
        self.cpus = [_CPU(i, self.config) for i in range(self.config.n_cpus)]
        #: line address -> CPU indices whose predicted-violating load is
        #: waiting for an earlier epoch's store to that line.
        self._sync_waiters: Dict[int, List[int]] = {}
        #: Overflow-squash stall state.  An epoch whose speculative
        #: state overflows the L2 is fully squashed and normally retried
        #: after the violation penalty; if it overflows *again* without
        #: the commit horizon having advanced, retrying immediately is
        #: futile (the cache pressure that evicted it is still there)
        #: and a population of thrashing epochs can starve the homefree
        #: epoch's memory accesses almost indefinitely.  Repeat
        #: offenders are parked here (cpu index -> (epoch, restart
        #: cycle)) and woken when the commit horizon next advances.
        self._overflow_parked: Dict[int, Tuple] = {}
        #: epoch order -> commit horizon at that epoch's last overflow.
        self._overflow_seen: Dict[int, int] = {}
        self.now = 0.0
        #: (cycle, cpu_index, event_version) — ties resolve by CPU index.
        self._heap: List[Tuple[float, int, int]] = []
        self._epochs_total = 0
        self._deadlock_breaks = 0
        # Hot-loop constants hoisted out of the per-record dispatch; the
        # config is immutable for the lifetime of a Machine.
        tls = self.config.tls
        self._overlap_loads = self.config.overlap_loads
        self._mshr_entries = self.config.mshr_entries
        self._subthread_start_cost = tls.subthread_start_cost
        #: Either per-load predictor policy enabled?  When False the
        #: predictor/synchronization checks are skipped entirely on the
        #: load fast path (both always return False in that case).
        self._load_policies = (
            tls.predictor_subthreads or tls.sync_predicted_loads
        )
        #: Fixed sub-thread spacing, or None under adaptive spacing (the
        #: per-epoch spacing then requires the engine's policy call).
        self._subthread_spacing = (
            None if tls.adaptive_spacing else tls.subthread_spacing
        )
        self._value_predict = tls.value_predict_loads
        self._spec_slice_limit = tls.spec_slice_limit
        self._max_subthreads = tls.max_subthreads
        #: The other CPUs' L1s, per CPU (write-invalidate walk).
        self._other_l1s = [
            [o.l1 for o in self.cpus if o is not c] for c in self.cpus
        ]
        # Trace compilation (repro.trace.compile); when disabled, every
        # record of a region gets a None entry (interpreted replay).
        self._compile_enabled = self.config.compile_traces
        #: Everything the compiled entries depend on besides the records
        #: themselves: the cache geometry.  Compilations are cached on the
        #: segment objects so repeated runs of the same trace (figure
        #: sweeps, benchmarks) skip recompilation, whatever their pipeline
        #: or overlap-loads setting; a key mismatch forces a fresh compile.
        self._compile_key = (
            self.config.line_size,
            self.l2.word_size,
            self.l2.line_granularity_loads,
        )
        #: The current region's entry tuples, keyed by the identity of
        #: the EpochTrace they are parallel to.
        self._region_compiled: Dict[int, Sequence] = {}
        #: Regions whose lowered entries came out of the segment's
        #: compile cache instead of being recompiled.
        self._compile_reuses = 0
        self._fast_loads = 0
        self._fast_stores = 0
        #: Metrics snapshot taken after functional warming (see
        #: :meth:`functional_warm`), subtracted by ``_collect_stats`` so
        #: a warmed run reports only measured-phase counters.
        self._warm_metrics: Optional[Dict[str, float]] = None

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def functional_warm(self, workload: WorkloadTrace) -> None:
        """Replay a warmup prefix *un-timed* into the machine state.

        SMARTS-style functional warming for the trace sampler
        (:mod:`repro.trace.sampling`): loads, stores, and branches
        update the L1s, the shared L2 (committed, non-speculative
        path), and the branch predictors — but no engine events are
        scheduled and the clock does not advance, so a subsequent
        :meth:`run` starts at cycle 0 against warm caches, exactly as
        the measured transactions would have found them mid-workload.

        Epochs are replayed on the CPUs they would run on (logical
        order, round-robin over the region width) so each private L1
        warms with its own epochs' lines; stores walk the other L1s'
        invalidations like the timed write-through path does.  Counter
        pollution from warming (L2 hit/miss tallies, predictor
        updates) is snapshotted and subtracted in ``_collect_stats``.
        """
        width = self._region_width()
        assignments = []
        for txn in workload.transactions:
            for segment in txn.segments:
                if isinstance(segment, SerialSegment):
                    assignments.append((0, segment.records))
                elif isinstance(segment, ParallelRegion):
                    assignments.extend(
                        (i % width, e.records)
                        for i, e in enumerate(segment.epochs)
                    )
                else:
                    raise TypeError(f"unknown segment {segment!r}")
        if self.tracer is not None:
            with self.tracer.span(
                "machine.warm",
                records=sum(len(records) for _, records in assignments),
            ):
                self._warm_replay(assignments)
        else:
            self._warm_replay(assignments)
        self._warm_metrics = self.metrics()

    def _warm_replay(self, assignments) -> None:
        """The functional-warming loop over ``(cpu index, records)``.

        Non-speculative throughout, so every access takes the committed
        single-line paths: the L1 LRU is touched in place on a hit (the
        L1 hit/miss tallies are left alone; ``_collect_stats`` would
        subtract them anyway) and filled on a miss, and the L2 goes
        through ``load_line``/``store_line`` once per line touched.
        Lines the L2 evicts leave the L1s too (inclusion, as on the
        timed path); memory transfers are discarded: nothing is timed.
        """
        l2 = self.l2
        geom = l2.geom
        line_mask = geom.line_mask
        line_size = geom.line_size
        load_line = l2.load_line
        store_line = l2.store_line
        word_mask = l2.word_mask
        apply_inclusion = self._apply_inclusion
        load_kind = Rec.LOAD
        store_kind = Rec.STORE
        branch_kind = Rec.BRANCH
        for cpu_idx, records in assignments:
            cpu = self.cpus[cpu_idx]
            l1 = cpu.l1
            resident = l1.resident
            l1_sets = l1._sets
            l1_shift = l1._set_shift
            l1_mask = l1._set_mask
            l1_fill = l1.fill
            predict = cpu.pipeline.predictor.predict_and_update
            others = self._other_l1s[cpu_idx]
            for rec in records:
                kind = rec[0]
                if kind == load_kind or kind == store_kind:
                    addr = rec[1]
                    size = rec[2]
                    # geom.lines_touched, inlined.
                    first = addr & line_mask
                    last = (addr + (size if size > 1 else 1) - 1) & line_mask
                    if first == last:
                        tags = (first,)
                    else:
                        tags = range(first, last + 1, line_size)
                    if kind == store_kind:
                        # One mask for every line, as SpeculativeL2.store
                        # computes it; a non-speculative store uses it
                        # only in the violation scan.
                        words = word_mask(addr, size)
                    for tag in tags:
                        if tag in resident:
                            order = l1_sets[(tag >> l1_shift) & l1_mask]._order
                            if order[-1] != tag:
                                order.remove(tag)
                                order.append(tag)
                        else:
                            l1_fill(tag, False)
                        if kind == load_kind:
                            result = load_line(
                                tag, COMMITTED, None, False, 0
                            )[1]
                        else:
                            for ol1 in others:
                                if tag in ol1.resident:
                                    ol1.invalidate(tag)
                            result = store_line(
                                tag, COMMITTED, None, words
                            )[1]
                        if result is not None and result.invalidated_lines:
                            apply_inclusion(result.invalidated_lines)
                elif kind == branch_kind:
                    predict(rec[1], rec[2])

    def run(self, workload: WorkloadTrace) -> SimulationStats:
        """Replay the workload; returns the aggregated statistics."""
        tracer = self.tracer
        for txn in workload.transactions:
            for segment in txn.segments:
                if isinstance(segment, SerialSegment):
                    kind = "serial"
                    epochs = [
                        EpochTrace(epoch_id=-1, records=segment.records)
                    ]
                elif isinstance(segment, ParallelRegion):
                    kind = "parallel"
                    epochs = segment.epochs
                else:
                    raise TypeError(f"unknown segment {segment!r}")
                if tracer is not None:
                    with tracer.span(
                        "machine.segment", kind=kind, epochs=len(epochs)
                    ):
                        self._run_region(epochs, segment)
                else:
                    self._run_region(epochs, segment)
        if self._invariants is not None:
            self._invariants.on_finish(self)
        return self._collect_stats()

    # ------------------------------------------------------------------
    # Region orchestration
    # ------------------------------------------------------------------

    def _region_width(self) -> int:
        width = self.config.region_cpus or self.config.n_cpus
        return max(1, min(width, self.config.n_cpus))

    def _run_region(self, epoch_traces: List[EpochTrace],
                    segment) -> None:
        if not epoch_traces:
            return
        if self._compile_enabled:
            # Compilations are pure functions of (records, compile key),
            # so they are cached on the segment they lower, keyed by
            # compile key: every Machine that replays the same trace
            # object reuses them.  The entries are cached positionally —
            # the serial pseudo-EpochTrace is recreated per run, so an
            # id-keyed cache would never hit.
            host_cache = getattr(segment, "_compile_cache", None)
            if host_cache is None:
                segment._compile_cache = host_cache = {}
            per_epoch = host_cache.get(self._compile_key)
            if per_epoch is None:
                if self.tracer is not None:
                    with self.tracer.span(
                        "machine.compile", epochs=len(epoch_traces)
                    ):
                        per_epoch = compile_region(epoch_traces, self.l2)
                else:
                    per_epoch = compile_region(epoch_traces, self.l2)
                host_cache[self._compile_key] = per_epoch
            else:
                self._compile_reuses += 1
        else:
            # Interpreted replay: every LOAD/STORE gets an empty entry,
            # so it takes the event loop's memory arms with the
            # reference per-line work instead of a line tuple.
            per_epoch = [
                tuple([
                    () if rec[0] == Rec.LOAD or rec[0] == Rec.STORE
                    else None
                    for rec in t.records
                ])
                for t in epoch_traces
            ]
        self._region_compiled = {
            id(t): entries for t, entries in zip(epoch_traces, per_epoch)
        }
        width = self._region_width()
        self._pending = list(epoch_traces)
        self._pending_idx = 0
        self._region_remaining = len(epoch_traces)
        start = self.now
        spawn = self.config.tls.spawn_latency if width > 1 else 0
        for i, cpu in enumerate(self.cpus[:width]):
            if self._pending_idx >= len(self._pending):
                break
            # Fork chain: epoch k is spawned by its predecessor, so it
            # begins k spawn latencies after the region opens.
            self._start_next_epoch(cpu, start + i * spawn)
        # Bindings the event loop needs per record, frozen for the
        # region.  Building them once here and unpacking one tuple per
        # heap event replaces ~30 chained attribute loads per event
        # (every name below is assigned once at machine or region setup
        # and only mutated in place afterwards; the L1's _spec_tags set
        # *is* rebound by flash_invalidate_spec, so it is deliberately
        # absent — consumers reach it through the hoisted L1 object).
        l2 = self.l2
        msys = self.msys
        shared = (
            self.observer, self._overlap_loads, self._load_policies,
            self._subthread_spacing, self._spec_slice_limit,
            self._max_subthreads, self._subthread_start_cost,
            msys.banks.reserve, msys.channel.reserve, msys.l2_latency,
            msys.memory_latency, l2.load_line, l2.store_line,
            self._sync_waiters, msys, self._value_predict,
        )
        for c in self.cpus:
            c.hoist = shared + (
                c.pipeline, c.l1, c.pipeline._issue_width,
                c.pipeline._mispredict_penalty,
                self._other_l1s[c.index],
                self.engine.exposed_load_tables[c.index].update,
                c.l1.resident, c.l1._sets, c.l1._set_shift,
                c.l1._set_mask,
            )
        # Overflow stalls never span regions (a parked epoch must commit
        # for its region to finish); cleared defensively.
        self._overflow_parked.clear()
        engine_core.run_event_loop(self)

    def _start_next_epoch(self, cpu: _CPU, now: float) -> None:
        trace = self._pending[self._pending_idx]
        self._pending_idx += 1
        speculative = self.config.speculation_enabled
        epoch = self.engine.start_epoch(
            trace, cpu.index, now, speculative=speculative
        )
        epoch.compiled = self._region_compiled[id(trace)]
        cpu.epoch = epoch
        cpu.l1.clear_spec_marks()
        self._epochs_total += 1
        if self.observer is not None:
            self.observer.on_epoch_start(epoch)
        self._emit(now, EPOCH_START, epoch)
        self._schedule(cpu, now)

    def _emit(self, cycle: float, kind: str, epoch, detail: str = ""):
        if self.record_events and epoch is not None:
            self.events.append(
                TimelineEvent(
                    cycle=cycle,
                    kind=kind,
                    epoch_order=epoch.order,
                    cpu=epoch.cpu,
                    detail=detail,
                )
            )

    def _schedule(self, cpu: _CPU, cycle: float) -> None:
        cpu.event_version += 1
        heapq.heappush(self._heap, (cycle, cpu.index, cpu.event_version))

    # ------------------------------------------------------------------
    # Per-record execution
    # ------------------------------------------------------------------

    def _mlp_stall(self, cpu: _CPU, epoch: EpochExecution,
                   now: float) -> float:
        """Overlap-mode bookkeeping: returns extra stall cycles.

        Completed misses are retired from the MSHR list; if the reorder
        window (rob_entries instructions) has fully retired past the
        oldest outstanding miss, the CPU must wait for its data.
        """
        if not cpu.outstanding:
            return 0.0
        cpu.outstanding = [
            (ready, issued) for ready, issued in cpu.outstanding
            if ready > now
        ]
        if not cpu.outstanding:
            return 0.0
        oldest_ready, issued_at = cpu.outstanding[0]
        window = self.config.pipeline.rob_entries
        if cpu.pipeline.instructions_retired - issued_at >= window:
            cpu.outstanding.pop(0)
            return max(0.0, oldest_ready - now)
        return 0.0

    # ------------------------------------------------------------------
    # Memory references
    # ------------------------------------------------------------------

    def _do_load(self, cpu: _CPU, epoch: EpochExecution, rec,
                 now: float) -> float:
        """A LOAD's per-line work on the reference memory path.

        Interpreted replay's counterpart of the event loop's line-tuple
        loop: clips the access to each line, runs the protocol through
        ``TLSEngine.load`` and charges L1, bank, L2 and memory timing.
        Returns the load's stall; the loop runs the prelude, retires
        the record, charges Busy/Miss and schedules the next event.
        """
        _, addr, size, pc = rec
        l1 = cpu.l1
        l2 = self.l2
        engine = self.engine
        msys = self.msys
        speculative = epoch.speculative
        stall = 0.0
        for line, sub_addr, sub_size in _clip_lines(l2.geom, addr, size):
            if l1.access(line):
                if speculative and not l1.is_notified(line):
                    mask = l2.word_mask(sub_addr, sub_size)
                    if not epoch.covers_load(line, mask):
                        # First exposed access to this line by this epoch:
                        # notify the L2 so its speculative-load bit is set.
                        # The notification is asynchronous (piggybacks on
                        # the write-through traffic): it reserves a bank
                        # slot but does not stall the CPU.
                        _result, exposed = engine.load(
                            epoch, sub_addr, sub_size, pc
                        )
                        msys.banks.reserve(line, now)
                        if exposed:
                            l1.mark_spec(
                                line,
                                notified=True,
                                subidx=epoch.current_subthread.index,
                            )
                continue
            result, exposed = engine.load(epoch, sub_addr, sub_size, pc)
            # The crossbar bank, then the L2; a miss also waits for the
            # memory channel.
            ready = msys.banks.reserve(line, now) + msys.l2_latency
            if not result.hit:
                ready = msys.channel.reserve(ready) + msys.memory_latency
            extra = result.memory_accesses - (0 if result.hit else 1)
            for _ in range(max(0, extra)):
                msys.extra_memory_transfer(now)
            if result.invalidated_lines:
                self._apply_inclusion(result.invalidated_lines)
            if self._overlap_loads:
                # Non-blocking: the miss occupies an MSHR; the CPU stalls
                # only when the MSHRs are exhausted (plus any ROB-window
                # drain computed at retirement time).
                if len(cpu.outstanding) >= self._mshr_entries:
                    oldest_ready, _ = cpu.outstanding.pop(0)
                    stall = max(stall, oldest_ready - now)
                cpu.outstanding.append(
                    (ready, cpu.pipeline.instructions_retired)
                )
            else:
                if ready - now > stall:
                    stall = ready - now
            subidx = (
                epoch.current_subthread.index if speculative else -1
            )
            l1.fill(line, spec=speculative, subidx=subidx)
            if speculative and exposed:
                l1.mark_spec(line, notified=True, subidx=subidx)
        return stall

    def _do_store(self, cpu: _CPU, epoch: EpochExecution, rec,
                  now: float) -> bool:
        """A STORE's per-line work on the reference memory path.

        Clips the access to each line, runs the protocol through
        ``TLSEngine.store``, reserves its bank, keeps inclusion,
        invalidates the other L1s' copies, applies the rewinds the store
        caused and wakes loads synchronized on the line.  Returns True
        if the store squashed its own epoch (the rewind has rescheduled
        this CPU); otherwise the event loop charges the record and
        schedules the next event.
        """
        _, addr, size, pc = rec
        engine = self.engine
        msys = self.msys
        other_l1s = self._other_l1s[cpu.index]
        l1 = cpu.l1
        speculative = epoch.speculative
        self_rewound = False
        for line, sub_addr, sub_size in _clip_lines(
            self.l2.geom, addr, size
        ):
            result, rewinds = engine.store(epoch, sub_addr, sub_size, pc)
            # Write-through: the store reserves bandwidth but the CPU does
            # not wait for it (store buffer).
            msys.banks.reserve(line, now)
            for _ in range(result.memory_accesses):
                msys.extra_memory_transfer(now)
            if result.invalidated_lines:
                self._apply_inclusion(result.invalidated_lines)
            # Write-invalidate coherence: drop stale copies in other L1s
            # (empty caches have nothing to drop).
            for ol1 in other_l1s:
                if line in ol1.resident:
                    ol1.invalidate(line)
            l1.fill(
                line,
                spec=speculative,
                subidx=(
                    epoch.current_subthread.index
                    if speculative else -1
                ),
            )
            # Rewinds must be applied before waking synchronized loads:
            # a victim that was sync-blocked has its wait cancelled (the
            # blocked interval is covered by the wall-interval Failed
            # charge) and must not also receive a stall accrual.
            if rewinds:
                self._apply_rewinds(rewinds, now)
                self_rewound = self_rewound or any(
                    r.epoch is epoch for r in rewinds
                )
            self._wake_sync_on_store(line, epoch.order, now)
        return self_rewound

    def _apply_inclusion(self, lines: List[int]) -> None:
        """L2 evictions invalidate any L1 copies (inclusion)."""
        for line in lines:
            for cpu in self.cpus:
                if line in cpu.l1.resident:
                    cpu.l1.invalidate(line)

    # ------------------------------------------------------------------
    # Latches (escaped speculation)
    # ------------------------------------------------------------------

    def _do_latch_acquire(self, cpu, epoch, rec,
                          now: float) -> Optional[float]:
        """Take the latch; returns the CPU's next-event cycle for the
        event loop to push or chain, or None when the CPU blocks."""
        _, latch_id, _pc = rec
        epoch.retire(1)
        if self.latches.try_acquire(latch_id, epoch):
            epoch.current_subthread.latches.append(latch_id)
            epoch.accrue(Category.BUSY, 1)
            epoch.cursor += 1
            return now + 1
        # Block; woken by the holder's release (or a rewind).
        cpu.blocked_latch = latch_id
        cpu.block_start = now
        self._emit(now, STALL_BEGIN, epoch, detail=f"latch {latch_id}")
        cpu.event_version += 1  # invalidate any queued event
        return None

    def _do_latch_release(self, cpu, epoch, rec, now: float) -> float:
        """Release the latch; returns the CPU's next-event cycle for the
        event loop to push or chain.  A waiter granted the latch is
        scheduled on its own CPU first, so the chain condition sees it."""
        _, latch_id = rec
        epoch.retire(1)
        granted = self.latches.release(latch_id, epoch)
        if granted is not None:
            self._grant_latch(granted, now)
        epoch.accrue(Category.BUSY, 1)
        epoch.cursor += 1
        return now + 1

    def _grant_latch(self, winner: EpochExecution, now: float) -> None:
        """A blocked epoch was granted the latch it was waiting for."""
        wcpu = self.cpus[winner.cpu]
        if wcpu.epoch is not winner or wcpu.blocked_latch is None:
            return
        latch_id = wcpu.blocked_latch
        if self.latches.holder_of(latch_id) is not winner:
            return
        stall = max(0.0, now - wcpu.block_start)
        winner.accrue(Category.SYNC, stall)
        winner.current_subthread.latches.append(latch_id)
        winner.cursor += 1  # past its LATCH_ACQ record
        wcpu.blocked_latch = None
        self._emit(now, STALL_END, winner)
        self._schedule(wcpu, now + 1)

    # ------------------------------------------------------------------
    # Load synchronization (predicted-violating loads)
    # ------------------------------------------------------------------

    def _wake_sync_on_store(self, line: int, store_order: int,
                            now: float) -> None:
        """An earlier epoch stored the line a synchronized load waits on."""
        waiters = self._sync_waiters.get(line)
        if not waiters:
            return
        for idx in list(waiters):
            wcpu = self.cpus[idx]
            if (
                wcpu.sync_line == line
                and wcpu.epoch is not None
                and wcpu.epoch.order > store_order
            ):
                self._release_sync_waiter(wcpu, now)

    def _wake_eligible_sync_waiters(self, now: float) -> None:
        """Wake synchronized loads with no running earlier epoch left."""
        for waiters in list(self._sync_waiters.values()):
            for idx in list(waiters):
                wcpu = self.cpus[idx]
                epoch = wcpu.epoch
                if epoch is None or wcpu.sync_line is None:
                    waiters.remove(idx)
                    continue
                blocked_by = any(
                    other.order < epoch.order
                    and other.status == EpochStatus.RUNNING
                    for other in self.engine.active.values()
                )
                if not blocked_by:
                    self._release_sync_waiter(wcpu, now)

    def _release_sync_waiter(self, wcpu: _CPU, now: float) -> None:
        """Unblock a synchronized load: account the stall and resume."""
        line = wcpu.sync_line
        waiters = self._sync_waiters.get(line)
        if waiters and wcpu.index in waiters:
            waiters.remove(wcpu.index)
        stall = max(0.0, now - wcpu.block_start)
        if wcpu.epoch is not None:
            wcpu.epoch.accrue(Category.SYNC, stall)
            self._emit(now, STALL_END, wcpu.epoch)
        wcpu.sync_line = None
        wcpu.sync_skip = True
        self._schedule(wcpu, now)

    def _cancel_sync_wait(self, cpu: _CPU) -> None:
        if cpu.sync_line is None:
            return
        waiters = self._sync_waiters.get(cpu.sync_line)
        if waiters and cpu.index in waiters:
            waiters.remove(cpu.index)
        cpu.sync_line = None

    # ------------------------------------------------------------------
    # Violations
    # ------------------------------------------------------------------

    def _apply_rewinds(self, actions: List[RewindAction], now: float) -> None:
        """Apply engine rewind decisions to CPU/timing state."""
        for action in actions:
            epoch = action.epoch
            vcpu = self.cpus[epoch.cpu]
            if vcpu.epoch is not epoch:
                continue  # epoch already gone (should not happen)
            if self.observer is not None:
                self.observer.on_rewind(epoch, action.subthread_idx)
            # A victim blocked on a latch stops waiting and re-executes;
            # the blocked interval is covered by the wall-interval Failed
            # charge below.
            if vcpu.blocked_latch is not None:
                self.latches.cancel_wait(vcpu.blocked_latch, epoch)
                vcpu.blocked_latch = None
            # Likewise for a synchronized (predicted-violating) load.
            if vcpu.sync_line is not None:
                self._cancel_sync_wait(vcpu)
            # Latches acquired by rewound code are released (compensation);
            # waiters granted a latch as a result wake up now.
            winners = self.latches.release_all(
                action.latches_released, epoch
            )
            self._emit(
                now, VIOLATION, epoch,
                detail=(
                    f"{'secondary' if action.secondary else 'primary'} "
                    f"-> sub-thread {action.subthread_idx}"
                ),
            )
            # Everything the rewound sub-threads did becomes Failed time.
            # Attribution is by wall interval, not by the pending cycle
            # counters: an in-flight record (e.g. a long load stall) has
            # its full cost accrued at issue, so counters can overshoot
            # the violation instant.  The interval [sub-thread start,
            # now] is exact, and the per-epoch [failed_low, failed_high]
            # watermark keeps repeated rewinds from double-charging.
            start = epoch.last_rewound_start
            restart = now + self.config.tls.violation_penalty
            vcpu.totals.add(
                Category.FAILED,
                epoch.charge_failed_interval(start, restart),
            )
            vcpu.outstanding.clear()
            # The L1 drops its speculative lines (Section 2.2) — all of
            # them with the paper's sub-thread-unaware L1s, or only the
            # rewound sub-threads' lines with the optional tracking.
            if self.config.l1_subthread_tracking:
                vcpu.l1.flash_invalidate_spec(
                    from_subidx=action.subthread_idx
                )
            else:
                vcpu.l1.flash_invalidate_spec()
            # The re-started sub-thread begins (again) at the restart
            # instant; future rewinds to it charge from here.
            epoch.current_subthread.start_cycle = restart
            self._overflow_parked.pop(epoch.cpu, None)
            if action.overflow and epoch.order > self.engine.commit_horizon:
                horizon = self.engine.commit_horizon
                if self._overflow_seen.get(epoch.order) == horizon:
                    # Second overflow with no commit progress in
                    # between: the squash is deterministic and will
                    # recur, so park the epoch until the horizon
                    # advances (the stall gap is accounted as Idle).
                    # The oldest uncommitted epoch is never parked —
                    # it is what advances the horizon.
                    vcpu.event_version += 1
                    self._overflow_parked[epoch.cpu] = (epoch, restart)
                    for winner in winners:
                        self._grant_latch(winner, now)
                    continue
                self._overflow_seen[epoch.order] = horizon
            self._schedule(vcpu, restart)
            for winner in winners:
                self._grant_latch(winner, now)

    # ------------------------------------------------------------------
    # Commit / completion
    # ------------------------------------------------------------------

    def _finish_epoch(self, cpu: _CPU, epoch: EpochExecution, now: float):
        # Outstanding misses must drain before the epoch can finish.
        if self.config.overlap_loads and cpu.outstanding:
            last_ready = max(r for r, _ in cpu.outstanding)
            cpu.outstanding.clear()
            if last_ready > now:
                epoch.accrue(Category.MISS, last_ready - now)
                self._schedule(cpu, last_ready)
                return
        self._emit(now, FINISH, epoch)
        self.engine.finish_epoch(epoch, now)
        cpu.event_version += 1  # no more events until commit or violation
        committed = self.engine.try_commit()
        # An epoch finishing/committing may unblock synchronized loads
        # that were waiting out earlier epochs.
        self._wake_eligible_sync_waiters(now)
        if committed:
            self._wake_overflow_parked(now)
        for done in committed:
            if self.observer is not None:
                self.observer.on_commit(done)
            self._emit(now, COMMIT, done)
            self._overflow_seen.pop(done.order, None)
            dcpu = self.cpus[done.cpu]
            dcpu.totals.merge(done.drain_pending())
            dcpu.l1.clear_spec_marks()
            dcpu.epoch = None
            self._region_remaining -= 1
            if self._pending_idx < len(self._pending):
                width = self._region_width()
                if done.cpu < width:
                    spawn = (
                        self.config.tls.spawn_latency if width > 1 else 0
                    )
                    self._start_next_epoch(dcpu, now + spawn)

    def _wake_overflow_parked(self, now: float) -> None:
        """Retry epochs stalled on repeated overflow squashes.

        Called when the commit horizon advances: the committed epoch's
        speculative lines are gone, so a parked epoch's next attempt
        has a chance.  If it overflows again at the *new* horizon it
        parks again (``_apply_rewinds``), so each epoch retries at most
        once per commit — forward progress is paced by the homefree
        epoch, which is never parked.
        """
        if not self._overflow_parked:
            return
        parked = self._overflow_parked
        self._overflow_parked = {}
        for cpu_idx in sorted(parked):
            epoch, restart = parked[cpu_idx]
            cpu = self.cpus[cpu_idx]
            if cpu.epoch is not epoch:
                continue
            t = restart if restart > now else now
            # The stall gap [restart, t] is unattributed and therefore
            # lands in Idle; failed-cycle charging resumes from the
            # actual re-start instant.
            epoch.current_subthread.start_cycle = t
            self._schedule(cpu, t)

    # ------------------------------------------------------------------
    # Deadlock safety net
    # ------------------------------------------------------------------

    def _break_deadlock(self) -> None:
        """All CPUs are blocked (or idle) with the region unfinished.

        The latch-ordering discipline in the trace generator should make
        this unreachable; if it happens we violate a speculative latch
        *holder* so the waiters can progress, keeping the simulation sound.

        Overflow-parked epochs are woken only when no other step applies.
        Waking them first can livelock: they overflow again at the same
        commit horizon and re-park, so the run never gets to the step
        that unblocks the oldest epoch.
        """
        blocked_sync = [
            cpu for cpu in self.cpus
            if cpu.sync_line is not None and cpu.epoch is not None
        ]
        if blocked_sync:
            # A synchronized load can always resume safely (proceeding is
            # just ordinary speculation); release the logically-oldest.
            target = min(blocked_sync, key=lambda c: c.epoch.order)
            self._release_sync_waiter(target, self.now)
            return
        blocked = [
            cpu for cpu in self.cpus
            if cpu.blocked_latch is not None and cpu.epoch is not None
        ]
        for cpu in sorted(blocked, key=lambda c: c.epoch.order):
            holder = self.latches.holder_of(cpu.blocked_latch)
            if (
                isinstance(holder, EpochExecution)
                and holder.speculative
                and holder.subthreads
            ):
                self._deadlock_breaks += 1
                action = self.engine.force_rewind(holder, 0)
                self._apply_rewinds([action], self.now)
                return
        if self._overflow_parked:
            # Overflow-stalled epochs are woken on commit; if the region
            # has otherwise run dry (e.g. every live epoch is parked),
            # retrying them is always sound — parking is a scheduling
            # choice, not a protocol state.
            self._wake_overflow_parked(self.now)
            return
        if not blocked:
            raise RuntimeError(
                "region cannot progress: no events and no blocked CPUs"
            )
        raise RuntimeError("unbreakable latch deadlock among epochs")

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------

    def metrics(self) -> Dict[str, float]:
        """Every subsystem counter, under its dotted name.

        The names are exactly ``SimulationStats.METRIC_SOURCES``'s, so
        ``stats.apply_metrics(machine.metrics())`` fills the stats
        object, and the span tracer emits the same names as a
        ``counter`` record without a second naming scheme.
        """
        engine, l2, cpus = self.engine, self.l2, self.cpus
        return {
            "engine.primary_violations": engine.primary_violations,
            "engine.secondary_violations": engine.secondary_violations,
            "engine.secondary_rewinds_avoided":
                engine.secondary_rewinds_avoided,
            "engine.subthreads_started": engine.subthreads_started,
            "engine.epochs_committed": engine.epochs_committed,
            "engine.epochs_total": self._epochs_total,
            "engine.load_predictor_entries": len(engine.load_predictor),
            "machine.deadlock_breaks": self._deadlock_breaks,
            "machine.branch_mispredictions": sum(
                c.pipeline.predictor.mispredictions for c in cpus
            ),
            "machine.instructions_retired": sum(
                c.pipeline.instructions_retired for c in cpus
            ),
            "l1.hits": sum(c.l1.hits for c in cpus),
            "l1.misses": sum(c.l1.misses for c in cpus),
            "l1.spec_invalidations": sum(
                c.l1.spec_invalidations for c in cpus
            ),
            "l2.hits": l2.hits,
            "l2.misses": l2.misses,
            "l2.victim_spills": l2.victim_spills,
            "l2.overflow_squashes": l2.overflow_squashes,
            "compile.fastpath_loads": self._fast_loads,
            "compile.fastpath_stores": self._fast_stores,
            "compile.region_cache_reuses": self._compile_reuses,
        }

    def _collect_stats(self) -> SimulationStats:
        stats = SimulationStats(n_cpus=self.config.n_cpus)
        stats.total_cycles = self.now
        # Copies: finalize_idle writes into them, and a later run on
        # this machine must not change a result already returned.
        stats.per_cpu = [cpu.totals.copy() for cpu in self.cpus]
        metrics = self.metrics()
        if self._warm_metrics is not None:
            # Functional warming bumped cache/predictor tallies while
            # the clock stood still; report measured-phase deltas only.
            metrics = {
                name: value - self._warm_metrics[name]
                for name, value in metrics.items()
            }
        stats.apply_metrics(metrics)
        stats.dependence_pairs = self.engine.profiler.pairs()
        stats.finalize_idle()
        return stats
