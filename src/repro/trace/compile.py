"""Trace pre-compilation: per-region lowering of epoch traces.

The interpreted hot loop pays per-record costs that are invariant for the
lifetime of a region: address-to-line slicing and word-mask arithmetic on
every memory record, and pipeline cost formulas on every compute record.
This module lowers each :class:`~repro.trace.events.EpochTrace` once per
region into a *compiled entry list* parallel to the record list, which
the machine consults per record:

**Super-records (batches).**  Maximal runs of consecutive
COMPUTE/OP/TLS_OVERHEAD/BRANCH records are coalesced into one entry
carrying the pre-summed static cycle cost (computed with the exact
per-record rounding the pipeline model uses), the total instruction
count, and the ordered branch list (branch outcomes stay dynamic: the
GShare predictor is stateful).  The machine dispatches such a run as one
event only for epochs that are *not speculative* (serial segments,
single-CPU modes, and the homefree epoch of a parallel region), where
nothing can interrupt it.  A speculative epoch may be squashed or reach
a sub-thread checkpoint between any two records, so it dispatches the
run record by record; the chained event loop keeps that cheap.

**Pre-resolved line tuples.**  Every LOAD/STORE record is lowered to a
``(MEM, lines)`` entry whose ``lines`` is a tuple of per-line
``(line, sub_addr, word_mask, load_bits)`` entries: the cache lines the
access touches, the access clipped to each line, the word mask within
the line, and the mask the L2 would record for a speculative load
(full-line under line-granularity tracking).  These are pure functions
of the immutable cache geometry, so they are exact in every execution
mode.  Every record of a region that makes the same ``(addr, size)``
access shares one entry object.

**One cache, on the trace.**  The machine keeps each region's entry
lists on the segment it lowered (``_compile_cache``), keyed by a compile
key that covers everything the lowering reads besides the records:
cache geometry, load-bit granularity, pipeline config and batching.
Every Machine that replays the same trace object reuses them
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

from ..cpu.pipeline import PipelineConfig
from ..trace.events import EpochTrace, Op, Rec

#: Compiled-entry kinds (first element of every compiled entry).
BATCH = 0
MEM = 1

#: Record kinds eligible for batching (no memory, no latches).
_BATCHABLE = frozenset((Rec.COMPUTE, Rec.OP, Rec.BRANCH, Rec.TLS_OVERHEAD))


def _op_latency_table(pipeline: PipelineConfig) -> Dict[int, float]:
    """Per-op-class latency, exactly as CorePipeline builds it."""
    return {
        Op.INT_MUL: pipeline.int_mul_latency / pipeline.int_units,
        Op.INT_DIV: pipeline.int_div_latency / pipeline.int_units,
        Op.FP: pipeline.fp_latency / pipeline.fp_units,
        Op.FP_DIV: pipeline.fp_div_latency / pipeline.fp_units,
        Op.FP_SQRT: pipeline.fp_sqrt_latency / pipeline.fp_units,
        Op.MEM_BARRIER: 1.0,
    }


def compile_region(
    epoch_traces: List[EpochTrace],
    l2,
    pipeline: PipelineConfig,
    batches: bool = True,
) -> List[tuple]:
    """Lower every epoch of one region; returns its entry tuples.

    The result is parallel to ``epoch_traces``, and each entry tuple is
    parallel to its epoch's record list; ``None`` means "interpret this
    record normally".  Tuples, so that once their entries are untracked
    the cyclic GC stops tracking (and walking) them too.

    ``l2`` supplies the cache geometry and the load-bit granularity;
    ``pipeline`` supplies the static cost formulas.  ``batches=False``
    suppresses super-records (the machine passes this in overlap-loads
    mode, whose per-record MSHR stall evaluation cannot be batched).
    """
    geom = l2.geom
    out: List[tuple] = []
    line_size = geom.line_size
    full_line_mask = l2._full_line_mask
    line_granularity = l2.line_granularity_loads
    word_mask = l2.word_mask
    width = pipeline.issue_width
    op_latency = _op_latency_table(pipeline)

    #: (addr, size) -> ``(MEM, lines)``: one entry per distinct access,
    #: shared by every record of the region that makes it.
    mem_cache: Dict[Tuple[int, int], tuple] = {}

    def lines_for(addr: int, size: int) -> tuple:
        cached = mem_cache.get((addr, size))
        if cached is not None:
            return cached
        access_end = addr + (size if size > 1 else 1)
        lines = []
        for line in geom.lines_touched(addr, size):
            # Clip the access to this line (same arithmetic as the
            # machine's interpreted _do_load/_do_store).
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
        entry = (MEM, tuple(lines))
        mem_cache[(addr, size)] = entry
        return entry

    for trace in epoch_traces:
        records = trace.records
        n = len(records)
        entries: list = [None] * n
        i = 0
        while i < n:
            rec = records[i]
            kind = rec[0]
            if kind == Rec.LOAD or kind == Rec.STORE:
                entries[i] = lines_for(rec[1], rec[2])
                i += 1
                continue
            if not batches or kind not in _BATCHABLE:
                i += 1
                continue
            # Extend a batch over the maximal run of batchable records,
            # pre-summing the static cost with the pipeline model's
            # per-record rounding.
            j = i
            busy = 0
            overhead = 0
            instrs = 0
            branches: List[Tuple[int, bool]] = []
            while j < n:
                r = records[j]
                rk = r[0]
                if rk == Rec.COMPUTE:
                    busy += (r[1] + width - 1) // width
                    instrs += r[1]
                elif rk == Rec.TLS_OVERHEAD:
                    overhead += (r[1] + width - 1) // width
                    instrs += r[1]
                elif rk == Rec.BRANCH:
                    busy += 1  # base cost; misprediction penalty is dynamic
                    instrs += 1
                    branches.append((r[1], r[2]))
                elif rk == Rec.OP:
                    latency = op_latency.get(r[1])
                    if latency is None:
                        break  # unknown op class: leave it interpreted
                    busy += max(1, int(round(latency * r[2])))
                    instrs += r[2]
                else:
                    break
                j += 1
            if j - i >= 2:
                entries[i] = (BATCH, j, busy, overhead, instrs,
                              tuple(branches))
                i = j
            else:
                i = j if j > i else i + 1
        out.append(tuple(entries))
    return out

