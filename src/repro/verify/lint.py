"""Static validation of workload traces (pre-simulation lint).

A workload trace that violates the generator's discipline can send the
simulator into states the TLS protocol was never designed for (latch
deadlocks, nonsense record tuples, addresses outside the synthetic
address map).  The linter checks that discipline *before* simulation:

1. **Record well-formedness** — every record is a tuple whose kind is a
   known :class:`~repro.trace.events.Rec` constant with the right arity
   and field domains (positive instruction counts, known op classes,
   non-negative addresses/sizes/PCs).
2. **Balanced latches** — within each execution unit (serial segment or
   epoch), every ``LATCH_REL`` releases a latch the unit still holds
   (re-entrant acquires counted), and no latch is held at unit end.
   An unreleased latch would leave the simulated latch table occupied
   forever; an unmatched release is a generator bug the simulator would
   silently ignore.
3. **Latch ordering** — acquisition edges (held latch -> newly acquired
   latch) across the whole workload must form an acyclic graph, i.e. be
   consistent with *some* global latch order.  This is the property that
   makes waits-for cycles impossible (the machine's deadlock breaker is
   only a safety net).
4. **Address-map coverage** — every LOAD/STORE address falls inside a
   region of :class:`~repro.trace.addressmap.AddressMap`; per-region
   operation counts are reported so tests can assert a workload touches
   the structures it should.

Use :func:`lint_workload` for a report, or :func:`assert_clean` to raise
:class:`TraceLintError` on the first batch of problems.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from ..trace.addressmap import AddressMap
from ..trace.events import (
    Op,
    ParallelRegion,
    Rec,
    SerialSegment,
    WorkloadTrace,
)

#: (name, base, limit) for every synthetic address region, in order.
REGIONS: List[Tuple[str, int, int]] = [
    ("code", 0x0000_0000, AddressMap.PAGES_BASE),
    ("pages", AddressMap.PAGES_BASE, AddressMap.POOL_META_BASE),
    ("pool_meta", AddressMap.POOL_META_BASE, AddressMap.POOL_LRU_BASE),
    ("pool_lru", AddressMap.POOL_LRU_BASE, AddressMap.LOG_BASE),
    ("log", AddressMap.LOG_BASE, AddressMap.LOCKS_BASE),
    ("locks", AddressMap.LOCKS_BASE, AddressMap.TXN_BASE),
    ("txn", AddressMap.TXN_BASE, AddressMap.APP_BASE),
    ("app", AddressMap.APP_BASE, AddressMap.RESULTS_BASE),
    ("results", AddressMap.RESULTS_BASE, 0x8000_0000),
]


class TraceLintError(AssertionError):
    """A workload trace violates the trace discipline."""


@dataclass
class LintIssue:
    unit: str      # e.g. "txn 0 (NEW ORDER) / segment 1 / epoch 2"
    index: int     # record index within the unit (-1 = unit-level)
    message: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.unit} @ record {self.index}: {self.message}"


@dataclass
class LintReport:
    issues: List[LintIssue] = field(default_factory=list)
    units: int = 0
    records: int = 0
    #: region name -> number of LOAD/STORE operations landing in it.
    region_ops: Dict[str, int] = field(default_factory=dict)

    @property
    def clean(self) -> bool:
        return not self.issues


def region_of(addr: int) -> str:
    for name, base, limit in REGIONS:
        if base <= addr < limit:
            return name
    return "unknown"


def _check_record(rec, out: List[str]) -> None:
    if not isinstance(rec, tuple) or not rec:
        out.append(f"record is not a non-empty tuple: {rec!r}")
        return
    kind = rec[0]
    if kind not in Rec.NAMES:
        out.append(f"unknown record kind {kind!r}")
        return
    name = Rec.NAMES[kind]
    if kind in (Rec.COMPUTE, Rec.TLS_OVERHEAD):
        if len(rec) != 2 or not isinstance(rec[1], int) or rec[1] < 1:
            out.append(f"{name} needs a positive count: {rec!r}")
    elif kind == Rec.OP:
        if len(rec) != 3 or rec[1] not in Op.NAMES:
            out.append(f"OP needs (op_class, count): {rec!r}")
        elif not isinstance(rec[2], int) or rec[2] < 1:
            out.append(f"OP needs a positive count: {rec!r}")
    elif kind in (Rec.LOAD, Rec.STORE):
        if len(rec) != 4:
            out.append(f"{name} needs (addr, size, pc): {rec!r}")
        else:
            _, addr, size, pc = rec
            if not isinstance(addr, int) or addr < 0:
                out.append(f"{name} address must be >= 0: {rec!r}")
            if not isinstance(size, int) or size < 1:
                out.append(f"{name} size must be >= 1: {rec!r}")
            if not isinstance(pc, int) or pc < 0:
                out.append(f"{name} pc must be >= 0: {rec!r}")
    elif kind == Rec.BRANCH:
        if len(rec) != 3 or not isinstance(rec[1], int) or rec[1] < 0:
            out.append(f"BRANCH needs (pc, taken): {rec!r}")
        elif rec[2] not in (0, 1, True, False):
            out.append(f"BRANCH taken must be boolean: {rec!r}")
    elif kind == Rec.LATCH_ACQ:
        if (
            len(rec) != 3
            or not isinstance(rec[1], int) or rec[1] < 0
            or not isinstance(rec[2], int) or rec[2] < 0
        ):
            out.append(f"LATCH_ACQ needs (latch_id, pc): {rec!r}")
    elif kind == Rec.LATCH_REL:
        if len(rec) != 2 or not isinstance(rec[1], int) or rec[1] < 0:
            out.append(f"LATCH_REL needs (latch_id,): {rec!r}")


def _lint_unit(
    unit_name: str,
    records,
    report: LintReport,
    order_edges: Set[Tuple[int, int]],
) -> None:
    report.units += 1
    held: Dict[int, int] = {}  # latch id -> recursion depth
    problems: List[str] = []
    for idx, rec in enumerate(records):
        report.records += 1
        problems.clear()
        _check_record(rec, problems)
        for message in problems:
            report.issues.append(LintIssue(unit_name, idx, message))
        if problems or not isinstance(rec, tuple) or not rec:
            continue
        kind = rec[0]
        if kind in (Rec.LOAD, Rec.STORE):
            region = region_of(rec[1])
            report.region_ops[region] = report.region_ops.get(region, 0) + 1
            if region == "unknown":
                report.issues.append(
                    LintIssue(
                        unit_name, idx,
                        f"address 0x{rec[1]:x} outside every known "
                        "address-map region",
                    )
                )
        elif kind == Rec.LATCH_ACQ:
            latch_id = rec[1]
            if latch_id in held:
                held[latch_id] += 1  # re-entrant
            else:
                for other in held:
                    order_edges.add((other, latch_id))
                held[latch_id] = 1
        elif kind == Rec.LATCH_REL:
            latch_id = rec[1]
            depth = held.get(latch_id, 0)
            if depth == 0:
                report.issues.append(
                    LintIssue(
                        unit_name, idx,
                        f"LATCH_REL of latch {latch_id} that the unit "
                        "does not hold",
                    )
                )
            elif depth == 1:
                del held[latch_id]
            else:
                held[latch_id] = depth - 1
    for latch_id, depth in sorted(held.items()):
        report.issues.append(
            LintIssue(
                unit_name, -1,
                f"latch {latch_id} still held at unit end "
                f"(depth {depth})",
            )
        )


def _find_order_cycle(
    edges: Set[Tuple[int, int]]
) -> List[int]:
    """A cycle in the held->acquired graph, or [] if acyclic."""
    graph: Dict[int, List[int]] = {}
    for a, b in edges:
        graph.setdefault(a, []).append(b)
    WHITE, GRAY, BLACK = 0, 1, 2
    color: Dict[int, int] = {}
    parent: Dict[int, int] = {}
    for root in graph:
        if color.get(root, WHITE) != WHITE:
            continue
        stack = [(root, iter(graph.get(root, ())))]
        color[root] = GRAY
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                c = color.get(nxt, WHITE)
                if c == GRAY:
                    # Found a back edge: reconstruct the cycle.
                    cycle = [nxt, node]
                    cur = node
                    while cur != nxt:
                        cur = parent[cur]
                        cycle.append(cur)
                    cycle.reverse()
                    return cycle
                if c == WHITE:
                    color[nxt] = GRAY
                    parent[nxt] = node
                    stack.append((nxt, iter(graph.get(nxt, ()))))
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
                stack.pop()
    return []


def lint_workload(workload: WorkloadTrace) -> LintReport:
    """Lint every unit of the workload; returns the full report."""
    report = LintReport()
    order_edges: Set[Tuple[int, int]] = set()
    for t_idx, txn in enumerate(workload.transactions):
        for s_idx, segment in enumerate(txn.segments):
            prefix = f"txn {t_idx} ({txn.name}) / segment {s_idx}"
            if isinstance(segment, SerialSegment):
                _lint_unit(prefix, segment.records, report, order_edges)
            elif isinstance(segment, ParallelRegion):
                for e_idx, epoch in enumerate(segment.epochs):
                    _lint_unit(
                        f"{prefix} / epoch {e_idx}",
                        epoch.records, report, order_edges,
                    )
            else:
                report.issues.append(
                    LintIssue(prefix, -1, f"unknown segment {segment!r}")
                )
    cycle = _find_order_cycle(order_edges)
    if cycle:
        path = " -> ".join(str(l) for l in cycle)
        report.issues.append(
            LintIssue(
                "<workload>", -1,
                f"latch acquisition order admits a waits-for cycle: {path}",
            )
        )
    return report


def assert_clean(workload: WorkloadTrace, max_shown: int = 20) -> LintReport:
    """Lint and raise :class:`TraceLintError` if any issue was found."""
    report = lint_workload(workload)
    if report.issues:
        shown = [str(issue) for issue in report.issues[:max_shown]]
        extra = len(report.issues) - len(shown)
        text = f"{len(report.issues)} trace lint issue(s):\n  " + \
            "\n  ".join(shown)
        if extra > 0:
            text += f"\n  ... and {extra} more"
        raise TraceLintError(text)
    return report
