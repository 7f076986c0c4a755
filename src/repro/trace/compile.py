"""Trace pre-compilation: per-region lowering of epoch traces.

The interpreted hot loop pays per-record costs that are invariant for the
lifetime of a region: address-to-line slicing and word-mask arithmetic on
every memory record.  This module lowers each
:class:`~repro.trace.events.EpochTrace` once per region into an *entry
tuple* parallel to the record list, which the machine consults per
record.

**Pre-resolved line tuples.**  Every LOAD/STORE record's entry is the
line tuple of its access: one ``(line, sub_addr, word_mask, load_bits)``
entry per cache line the access touches, with the access clipped to
that line, the word mask within the line, and the mask the L2 would
record for a speculative load (full-line under line-granularity
tracking).  These are pure functions of the immutable cache geometry,
so they are exact in every execution mode.  Every record of a region
that makes the same ``(addr, size)`` access shares one line tuple.
Every other record's entry is ``None``: compute, op, branch and latch
records run the event loop's per-record bodies, compiled or not.

**One cache, on the trace.**  The machine keeps each region's entry
tuples on the segment it lowered (``_compile_cache``), keyed by a
compile key that covers everything the lowering reads besides the
records: line size, word size and load-bit granularity.  Every Machine
with that cache geometry that replays the same trace object reuses
them, whatever its pipeline or overlap-loads setting
(``compile.region_cache_reuses`` counts those hits); pickling a segment
drops them, so each harness worker compiles what it runs.

Compilation must be byte-identical to interpretation: every cycle count
and statistic of a run with compiled traces equals the interpreted run's.
``MachineConfig(compile_traces=False)`` (or ``--no-compile-traces`` on
the harness CLI) disables the whole pass; the differential fuzzer
replays every workload under both paths and asserts stats equality.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..trace.events import EpochTrace, Rec


def compile_region(epoch_traces: List[EpochTrace], l2) -> List[tuple]:
    """Lower every epoch of one region; returns its entry tuples.

    The result is parallel to ``epoch_traces``, and each entry tuple is
    parallel to its epoch's record list: a LOAD/STORE record's entry is
    its access's line tuple, every other record's is ``None``.  Tuples,
    so that once their line tuples are untracked the cyclic GC stops
    tracking (and walking) them too.

    ``l2`` supplies the cache geometry and the load-bit granularity.
    """
    geom = l2.geom
    line_size = geom.line_size
    full_line_mask = l2._full_line_mask
    line_granularity = l2.line_granularity_loads
    word_mask = l2.word_mask
    load = Rec.LOAD
    store = Rec.STORE

    #: (addr, size) -> line tuple: one per distinct access, shared by
    #: every record of the region that makes it.
    line_tuples: Dict[Tuple[int, int], tuple] = {}

    def lines_for(addr: int, size: int) -> tuple:
        cached = line_tuples.get((addr, size))
        if cached is not None:
            return cached
        access_end = addr + (size if size > 1 else 1)
        lines = []
        for line in geom.lines_touched(addr, size):
            # Clip the access to this line (same arithmetic as the
            # reference memory path's clip in repro.sim.machine).
            sub_addr = addr if addr >= line else line
            sub_end = line + line_size
            if access_end < sub_end:
                sub_end = access_end
            sub_size = sub_end - sub_addr
            if sub_size < 1:
                sub_size = 1
            wmask = word_mask(sub_addr, sub_size)
            load_bits = full_line_mask if line_granularity else wmask
            lines.append((line, sub_addr, wmask, load_bits))
        entry = line_tuples[(addr, size)] = tuple(lines)
        return entry

    return [
        tuple([
            lines_for(rec[1], rec[2])
            if rec[0] == load or rec[0] == store else None
            for rec in trace.records
        ])
        for trace in epoch_traces
    ]
