"""Execution timelines: Figure-1-style Gantt charts from real runs.

The paper's Figures 1, 2 and 4 are hand-drawn timelines of speculative
threads being violated and rewound.  With ``Machine(record_events=True)``
the simulator logs the corresponding events, and :func:`render_timeline`
draws the same kind of diagram from an *actual* execution — one row per
epoch, time flowing right:

```
epoch 2 |--====x===~~====F.C
         spawn  |    |    finish/commit
                |    latch stall
                violation (rewound here)
```

Legend: ``=`` executing, ``x`` violation received, ``~`` stalled
(latch/sync), ``F`` finished (waiting for the token), ``C`` committed,
``.`` waiting, space = not yet started.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

#: Event kinds recorded by the machine.
EPOCH_START = "epoch_start"
SUBTHREAD_START = "subthread_start"
VIOLATION = "violation"
FINISH = "finish"
COMMIT = "commit"
STALL_BEGIN = "stall_begin"
STALL_END = "stall_end"


@dataclass(frozen=True)
class TimelineEvent:
    cycle: float
    kind: str
    epoch_order: int
    cpu: int
    detail: str = ""


def render_timeline(
    events: List[TimelineEvent],
    width: int = 72,
    max_epochs: Optional[int] = None,
) -> str:
    """Render recorded events as an ASCII Gantt chart."""
    if not events:
        return "(no events recorded — construct Machine(record_events=True))"
    end = max(e.cycle for e in events) or 1.0
    scale = (width - 1) / end

    def col(cycle: float) -> int:
        return min(width - 1, int(cycle * scale))

    by_epoch: Dict[int, List[TimelineEvent]] = {}
    for event in sorted(events, key=lambda e: e.cycle):
        by_epoch.setdefault(event.epoch_order, []).append(event)

    orders = sorted(by_epoch)
    if max_epochs is not None:
        orders = orders[:max_epochs]
    label_width = max(len(f"epoch {o}") for o in orders)
    lines = []
    for order in orders:
        row = [" "] * width
        evs = by_epoch[order]
        start = next((e.cycle for e in evs if e.kind == EPOCH_START), 0.0)
        commit = next(
            (e.cycle for e in evs if e.kind == COMMIT), end
        )
        finish = next(
            (e.cycle for e in evs if e.kind == FINISH), commit
        )
        for i in range(col(start), col(finish) + 1):
            row[i] = "="
        for i in range(col(finish), col(commit) + 1):
            if row[i] == " ":
                row[i] = "."
        # Stalls overwrite the running fill.
        stall_from: Optional[float] = None
        for e in evs:
            if e.kind == STALL_BEGIN:
                stall_from = e.cycle
            elif e.kind == STALL_END and stall_from is not None:
                for i in range(col(stall_from), col(e.cycle) + 1):
                    row[i] = "~"
                stall_from = None
        # Point markers last so they stay visible.
        for e in evs:
            if e.kind == SUBTHREAD_START:
                row[col(e.cycle)] = "|"
            elif e.kind == VIOLATION:
                row[col(e.cycle)] = "x"
        if col(finish) < width:
            row[col(finish)] = "F"
        if col(commit) < width:
            row[col(commit)] = "C"
        label = f"epoch {order}".ljust(label_width)
        lines.append(f"{label} {''.join(row)}")
    lines.append(
        f"{'':{label_width}} 0{'cycles'.center(width - 8)}{end:.0f}"
    )
    lines.append(
        "legend: = run  | sub-thread  x violation  ~ stall  "
        "F finish  C commit  . wait"
    )
    return "\n".join(lines)


def summarize_events(events: List[TimelineEvent]) -> Dict[str, int]:
    """Event counts by kind (tests and quick sanity checks)."""
    counts: Dict[str, int] = {}
    for e in events:
        counts[e.kind] = counts.get(e.kind, 0) + 1
    return counts
