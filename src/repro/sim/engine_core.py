"""The simulator's event loop.

:func:`run_event_loop` drains one region's event heap.  Every heap event
and every chained record dispatch flows through it, which makes it the
hottest code in the simulator.  Shared state reaches it through
``machine`` attributes and the per-CPU hoist tuples ``_run_region``
builds; cross-object work (rewinds, latches, epoch finish and commit)
calls back into ``Machine`` methods, which are cold.

There is one dispatch loop, and one body per record kind.  Every body
returns its next-event cycle to one tail, which pushes it or chains it;
only a sub-thread checkpoint pause, the end-of-epoch miss drain and a
rewind schedule a CPU anywhere else.  A compiled region (the default)
adds two optimizations to the loop:

* loads and stores walk their precompiled line tuples, and a load that
  hits its L1 updates the L1 in-line; bank reservations, the L2 and a
  store's own L1 fill are the same calls the reference path makes;
* when a CPU's next event would be the very next heap pop anyway
  ((time, cpu) sorts before the heap top), the loop processes that
  record in-line instead of pushing and popping it (chaining).

Interpreted replay (``compile_traces=False``) runs the same loop with
an empty entry for each LOAD/STORE record and no chaining.  Loads and
stores enter the same arms and share their prelude, retirement,
observer call, accounting and tail; only their per-line work takes the
reference memory path (``Machine._do_load``/``_do_store``, then
``TLSEngine.load``/``store`` and ``SpeculativeL2.load``/``store``), and
every next event goes through the heap.  The canonical event order is
unchanged by construction, so both produce byte-identical statistics;
the differential fuzzer and the CI ``cmp`` checks compare them.

The per-event dispatch is merged into the loop rather than called as a
method: one Python frame per heap event was measurable at this event
rate.
"""

from __future__ import annotations

import heapq
from heapq import heappush as _heappush

from ..core.accounting import Category
from ..core.epoch import EpochStatus
from ..trace.events import Rec
from .timeline import STALL_BEGIN, SUBTHREAD_START

# Category keys hoisted to module level for the per-record hot paths.
_BUSY = Category.BUSY
_MISS = Category.MISS
_OVERHEAD = Category.OVERHEAD
_RUNNING = EpochStatus.RUNNING


def run_event_loop(machine):
    """Drain one region's event heap until every epoch has committed.

    ``machine`` is the owning :class:`repro.sim.machine.Machine`;
    ``_run_region`` has already scheduled the region's first epochs,
    given each its entry tuple (under interpreted replay, ``()`` for a
    LOAD/STORE and ``None`` otherwise) and built the per-CPU hoist
    tuples.  Reads
    ``machine._region_remaining`` fresh each iteration — epoch commits
    mutate it through ``_finish_epoch``.
    """
    heap = machine._heap
    cpus = machine.cpus
    heappop = heapq.heappop
    invariants = machine._invariants
    engine = machine.engine
    chained = machine._compile_enabled
    while machine._region_remaining > 0:
        if not heap:
            machine._break_deadlock()
            continue
        now, cpu_idx, version = heappop(heap)
        cpu = cpus[cpu_idx]
        if version != cpu.event_version:
            continue  # superseded by a rewind/wake
        epoch = cpu.epoch
        if epoch is None or epoch.status != _RUNNING:
            continue
        if now > machine.now:
            machine.now = now
        # Chaining is safe for any epoch: the chain condition at the
        # bottom admits only events that would be the very next heap
        # pop, so the canonical event order is preserved — no other
        # CPU processes anything between chained steps.  Everything
        # the per-record bodies need is hoisted here once per heap
        # event and stays live across the chain; the two mutation
        # points that can invalidate a binding rebind (sub-thread
        # checkpoints) or break the chain (rewinds of this epoch)
        # explicitly.
        records = epoch.records
        n_records = epoch.n_records
        compiled = epoch.compiled
        speculative = epoch.speculative
        order = epoch.order
        cp = epoch.subthreads[-1]
        pending = cp.pending.cycles
        if speculative:
            su = epoch.store_union
            sm = cp.store_mask
            ctx = cp.ctx
            subidx = cp.index
        else:
            su = sm = None
            ctx = None
            subidx = -1
        (observer, overlap, load_policies, spacing_cfg, slice_limit,
         max_subthreads, start_cost, banks_reserve, chan_reserve,
         l2_lat, mem_lat, l2_load, l2_store, sync_waiters, msys, vp,
         pipeline, l1, width, penalty, other_l1s, elt_update,
         l1_resident, l1_sets, l1_shift, l1_mask,
         ) = cpu.hoist
        while True:
            if invariants is not None:
                invariants.on_step(machine)
            cursor = epoch.cursor
            if cursor >= n_records:  # inline epoch.done
                machine._finish_epoch(cpu, epoch, now)
                break
            if speculative and (
                spacing_cfg is None
                or epoch.instrs_since_checkpoint >= spacing_cfg
            ) and (
                # The policy's own first tests, hoisted: skip the
                # call once the sub-thread budget is exhausted.
                len(epoch.subthreads) < max_subthreads
            ) and engine.maybe_start_subthread(epoch, now):
                machine._emit(now, SUBTHREAD_START, epoch)
                if start_cost:
                    epoch.accrue(Category.OVERHEAD, start_cost)
                    machine._schedule(cpu, now + start_cost)
                    break
                # A checkpoint opened between records: rebind the
                # sub-thread locals before dispatching the record.
                cp = epoch.subthreads[-1]
                pending = cp.pending.cycles
                sm = cp.store_mask
                ctx = cp.ctx
                subidx = cp.index
            rec = records[cursor]
            kind = rec[0]
            entry = compiled[cursor]
            if entry is not None:
                # A LOAD or STORE: one prelude, retirement, observer
                # call, accounting and tail for both replay paths; only
                # the per-line memory work branches.  A compiled entry
                # walks its precompiled line tuples in-line; interpreted
                # replay's empty entry takes the reference memory path.
                pc = rec[3]
                if kind == Rec.LOAD:
                    if cpu.sync_skip:
                        cpu.sync_skip = False
                    elif load_policies:
                        # Section 5.1 policy: checkpoint right before a
                        # predicted-violating load (zero-cost by default;
                        # a nonzero cost delays the load by one event).
                        if engine.maybe_start_predictor_subthread(
                            epoch, pc, now
                        ):
                            machine._emit(
                                now, SUBTHREAD_START, epoch,
                                detail="predictor",
                            )
                            if start_cost:
                                epoch.accrue(
                                    Category.OVERHEAD, start_cost
                                )
                                machine._schedule(cpu, now + start_cost)
                                break
                            cp = epoch.subthreads[-1]
                            pending = cp.pending.cycles
                            sm = cp.store_mask
                            ctx = cp.ctx
                            subidx = cp.index
                        # Moshovos-style policy: synchronize instead of
                        # speculating.
                        if engine.should_synchronize_load(epoch, pc):
                            line = rec[1] & machine.l2.geom.line_mask
                            cpu.sync_line = line
                            cpu.block_start = now
                            machine._emit(
                                now, STALL_BEGIN, epoch, detail="sync"
                            )
                            cpu.event_version += 1
                            sync_waiters.setdefault(line, []).append(
                                cpu_idx
                            )
                            break
                    epoch.instrs_since_checkpoint += 1
                    if observer is not None:
                        observer.on_op(
                            epoch, Rec.LOAD, rec[1], rec[2], pc
                        )
                    if entry:
                        machine._fast_loads += 1
                        stall = 0.0
                    else:
                        # The reference per-line work; the empty entry
                        # leaves the line-tuple loop below no lines.
                        stall = machine._do_load(cpu, epoch, rec, now)
                    for line, sub_addr, mask, load_bits in entry:
                        if line in l1_resident:
                            # l1.access hit, inlined: bump the counter
                            # and refresh LRU order.
                            l1.hits += 1
                            cset = l1_sets[(line >> l1_shift) & l1_mask]
                            order_l = cset._order
                            if order_l[-1] != line:
                                order_l.remove(line)
                                order_l.append(line)
                            if not speculative:
                                continue
                            # is_notified + covers_load + mark_spec,
                            # inlined: one dict chain to the L1Line
                            # instead of lookups through method calls.
                            lobj = cset._by_tag[line]
                            if lobj.notified:
                                continue
                            written = su.get(line)
                            if written is not None and not (
                                mask & ~written
                            ):
                                continue
                            # First exposed access to this line: notify
                            # the L2 asynchronously (a bank slot, no
                            # stall).
                            exposed = True
                            if vp and engine._value_prediction_hits(
                                epoch, sub_addr, pc
                            ):
                                exposed = False
                                engine.value_predictions_used += 1
                            l2_load(line, order, ctx, exposed, load_bits)
                            banks_reserve(line, now)
                            if exposed:
                                elt_update(line, pc)
                                lobj.spec = True
                                if subidx > lobj.subidx:
                                    lobj.subidx = subidx
                                l1._spec_tags.add(line)
                                lobj.notified = True
                            continue
                        l1.misses += 1
                        exposed = False
                        if speculative:
                            written = su.get(line)
                            exposed = written is None or bool(
                                mask & ~written
                            )
                            if exposed and vp and (
                                engine._value_prediction_hits(
                                    epoch, sub_addr, pc
                                )
                            ):
                                exposed = False
                                engine.value_predictions_used += 1
                        hit, result = l2_load(
                            line, order, ctx, exposed, load_bits
                        )
                        if exposed:
                            elt_update(line, pc)
                        if hit:
                            ready = banks_reserve(line, now) + l2_lat
                        else:
                            ready = chan_reserve(
                                banks_reserve(line, now) + l2_lat
                            ) + mem_lat
                            if result.memory_accesses > 1:
                                for _ in range(result.memory_accesses - 1):
                                    msys.extra_memory_transfer(now)
                            if result.invalidated_lines:
                                machine._apply_inclusion(
                                    result.invalidated_lines
                                )
                        if overlap:
                            if len(cpu.outstanding) >= machine._mshr_entries:
                                oldest_ready, _ = cpu.outstanding.pop(0)
                                if oldest_ready - now > stall:
                                    stall = oldest_ready - now
                            cpu.outstanding.append(
                                (ready, pipeline.instructions_retired)
                            )
                        elif ready - now > stall:
                            stall = ready - now
                        l1.fill(
                            line, spec=speculative, subidx=subidx,
                            notified=exposed,
                        )
                    pending[_BUSY] += 1
                    if stall > 0:
                        pending[_MISS] += stall
                    epoch.cursor = cursor + 1
                    t_next = now + 1 + stall
                else:
                    epoch.instrs_since_checkpoint += 1
                    if observer is not None:
                        observer.on_op(
                            epoch, Rec.STORE, rec[1], rec[2], pc
                        )
                    if entry:
                        machine._fast_stores += 1
                        self_rewound = False
                    else:
                        self_rewound = machine._do_store(
                            cpu, epoch, rec, now
                        )
                    for line, _sub_addr, words, _load_bits in entry:
                        if speculative:
                            sm[line] = sm.get(line, 0) | words
                            su[line] = su.get(line, 0) | words
                        _hit, result = l2_store(line, order, ctx, words, pc)
                        rewinds = None
                        if result is not None:
                            violations = result.violations
                            overflow = result.overflow_squash
                            if violations or overflow:
                                rewinds = engine._resolve_violations(
                                    violations
                                )
                                if overflow:
                                    rewinds.extend(
                                        engine._resolve_overflow(
                                            overflow
                                        )
                                    )
                        # Write-through: the store reserves bandwidth
                        # but the CPU does not wait for it.
                        banks_reserve(line, now)
                        if result is not None:
                            if result.memory_accesses:
                                for _ in range(result.memory_accesses):
                                    msys.extra_memory_transfer(now)
                            if result.invalidated_lines:
                                machine._apply_inclusion(
                                    result.invalidated_lines
                                )
                        for ol1 in other_l1s:
                            if line in ol1.resident:
                                ol1.invalidate(line)
                        l1.fill(line, spec=speculative, subidx=subidx)
                        if rewinds:
                            machine._apply_rewinds(rewinds, now)
                            if not self_rewound:
                                for r in rewinds:
                                    if r.epoch is epoch:
                                        self_rewound = True
                                        break
                            if speculative:
                                # A rewind may have truncated the
                                # sub-thread list and replaced the
                                # store-mask union: rebind.
                                cp = epoch.subthreads[-1]
                                pending = cp.pending.cycles
                                sm = cp.store_mask
                                su = epoch.store_union
                                ctx = cp.ctx
                                subidx = cp.index
                        if sync_waiters:
                            machine._wake_sync_on_store(line, order, now)
                    if self_rewound:
                        # Squashed mid-record; the rewind already
                        # rescheduled this CPU.
                        break
                    pending[_BUSY] += 1
                    epoch.cursor = cursor + 1
                    t_next = now + 1
            elif kind == Rec.COMPUTE or kind == Rec.TLS_OVERHEAD:
                # Retire (part of) a compute record.  Speculative slices
                # stay bounded: sub-thread boundaries land exactly on
                # the spacing schedule even inside long straight-line
                # code, and a violation arriving mid-slice
                # mis-attributes at most one slice of cycles to Failed.
                count = rec[1]
                chunk = count - epoch.offset
                if speculative:
                    spacing = spacing_cfg
                    if spacing is None:
                        spacing = engine.spacing_for(epoch)
                    if spacing < chunk:
                        chunk = spacing
                    if slice_limit < chunk:
                        chunk = slice_limit
                    if len(epoch.subthreads) < max_subthreads:
                        to_boundary = spacing - epoch.instrs_since_checkpoint
                        if 0 < to_boundary < chunk:
                            chunk = to_boundary
                pipeline.instructions_retired += chunk
                cycles = (chunk + width - 1) // width
                mlp_stall = (
                    machine._mlp_stall(cpu, epoch, now)
                    if overlap else 0.0
                )
                epoch.instrs_since_checkpoint += chunk
                if kind == Rec.COMPUTE:
                    pending[_BUSY] += cycles
                else:
                    pending[_OVERHEAD] += cycles
                if mlp_stall:
                    pending[_MISS] += mlp_stall
                    cycles += mlp_stall
                if epoch.offset + chunk >= count:
                    epoch.cursor = cursor + 1
                    epoch.offset = 0
                else:
                    epoch.offset += chunk
                t_next = now + cycles
            elif kind == Rec.OP:
                cycles = pipeline.op_cycles(rec[1], rec[2])
                epoch.instrs_since_checkpoint += rec[2]
                pending[_BUSY] += cycles
                epoch.cursor = cursor + 1
                t_next = now + cycles
            elif kind == Rec.BRANCH:
                # pipeline.branch_cycles, inlined.
                pipeline.instructions_retired += 1
                if pipeline.predictor.predict_and_update(rec[1], rec[2]):
                    cycles = 1
                else:
                    cycles = 1 + penalty
                epoch.instrs_since_checkpoint += 1
                pending[_BUSY] += cycles
                epoch.cursor = cursor + 1
                t_next = now + cycles
            elif kind == Rec.LATCH_ACQ:
                t_next = machine._do_latch_acquire(cpu, epoch, rec, now)
            elif kind == Rec.LATCH_REL:
                t_next = machine._do_latch_release(cpu, epoch, rec, now)
            else:
                raise ValueError(f"unknown record kind {kind}")
            if t_next is None:
                break  # blocked on a latch
            # Interpreted replay never chains: one record per heap event.
            if not chained or heap and (
                t_next > heap[0][0]
                or (t_next == heap[0][0] and cpu_idx > heap[0][1])
            ):
                cpu.event_version += 1
                _heappush(heap, (t_next, cpu_idx, cpu.event_version))
                break
            # Our next event would be the very next pop: process it
            # in-line instead of a push/pop round-trip.
            if t_next > machine.now:
                machine.now = t_next
            now = t_next
