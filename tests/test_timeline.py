"""Tests for execution-event recording and timeline rendering."""

from pathlib import Path

import pytest

from repro.harness.figure4 import figure4_workload
from repro.sim import (
    Machine,
    MachineConfig,
    render_timeline,
    summarize_events,
)
from repro.sim.timeline import (
    COMMIT,
    EPOCH_START,
    FINISH,
    STALL_BEGIN,
    STALL_END,
    SUBTHREAD_START,
    VIOLATION,
)
from repro.trace.events import (
    EpochTrace,
    ParallelRegion,
    Rec,
    TransactionTrace,
    WorkloadTrace,
)


def run_recorded(workload, config=None):
    machine = Machine(config or MachineConfig(), record_events=True)
    stats = machine.run(workload)
    return machine, stats


class TestEventRecording:
    def test_disabled_by_default(self):
        machine = Machine(MachineConfig())
        machine.run(figure4_workload(work=200))
        assert machine.events == []

    def test_lifecycle_events_per_epoch(self):
        machine, stats = run_recorded(figure4_workload(work=200))
        counts = summarize_events(machine.events)
        assert counts[EPOCH_START] == 4
        assert counts[FINISH] == 4
        assert counts[COMMIT] == 4

    def test_violation_events_recorded(self):
        machine, stats = run_recorded(figure4_workload())
        counts = summarize_events(machine.events)
        assert counts.get(VIOLATION, 0) == (
            stats.primary_violations + stats.secondary_violations
        )
        details = [
            e.detail for e in machine.events if e.kind == VIOLATION
        ]
        assert any("primary" in d for d in details)
        assert any("secondary" in d for d in details)

    def test_subthread_events_match_engine_counter(self):
        machine, stats = run_recorded(figure4_workload())
        counts = summarize_events(machine.events)
        # Sub-thread 0 of each epoch opens silently at epoch start; the
        # recorded events are the later checkpoints, including rewound
        # re-creations.
        assert counts[SUBTHREAD_START] >= 1
        assert (
            counts[SUBTHREAD_START] + counts[EPOCH_START]
            == stats.subthreads_started
        )

    def test_stall_events_balanced(self):
        # Contended latch: one stall begin and one end.
        e0 = [(Rec.LATCH_ACQ, 7, 1), (Rec.COMPUTE, 800), (Rec.LATCH_REL, 7)]
        e1 = [(Rec.COMPUTE, 10), (Rec.LATCH_ACQ, 7, 1), (Rec.LATCH_REL, 7)]
        wl = WorkloadTrace(
            name="w",
            transactions=[
                TransactionTrace(
                    name="t",
                    segments=[
                        ParallelRegion(
                            epochs=[
                                EpochTrace(0, e0),
                                EpochTrace(1, e1),
                            ]
                        )
                    ],
                )
            ],
        )
        machine, _ = run_recorded(wl)
        counts = summarize_events(machine.events)
        assert counts.get(STALL_BEGIN, 0) == counts.get(STALL_END, 0) == 1

    def test_events_are_time_ordered_per_epoch(self):
        machine, _ = run_recorded(figure4_workload())
        for order in {e.epoch_order for e in machine.events}:
            cycles = [
                e.cycle for e in machine.events if e.epoch_order == order
            ]
            assert cycles == sorted(cycles)


class TestRendering:
    def test_empty_events_message(self):
        assert "no events" in render_timeline([])

    def test_render_contains_rows_and_legend(self):
        machine, _ = run_recorded(figure4_workload())
        text = render_timeline(machine.events, width=60)
        assert "epoch 0" in text and "epoch 3" in text
        assert "legend" in text
        assert "C" in text  # commits visible

    def test_max_epochs_limits_rows(self):
        machine, _ = run_recorded(figure4_workload())
        text = render_timeline(machine.events, width=60, max_epochs=2)
        assert "epoch 2" not in text

    def test_violations_marked(self):
        machine, stats = run_recorded(figure4_workload())
        assert stats.primary_violations >= 1
        text = render_timeline(machine.events, width=60)
        assert "x" in text

    def test_rows_fit_width(self):
        machine, _ = run_recorded(figure4_workload())
        width = 50
        text = render_timeline(machine.events, width=width)
        label_width = len("epoch 0")
        for line in text.splitlines()[:-2]:
            assert len(line) <= label_width + 1 + width


GOLDEN = Path(__file__).parent / "golden" / "timeline_small.txt"


def golden_workload() -> WorkloadTrace:
    """Figure-4-style violation plus a contended latch, so the golden
    render pins every glyph class: run, violation, latch stall, finish,
    commit, wait."""
    violation_region = ParallelRegion(epochs=[
        EpochTrace(0, [
            (Rec.COMPUTE, 600),
            (Rec.STORE, 0x1000, 4, 0x400100),
            (Rec.COMPUTE, 50),
        ]),
        EpochTrace(1, [
            (Rec.COMPUTE, 200),
            (Rec.LOAD, 0x1000, 4, 0x400200),
            (Rec.COMPUTE, 400),
        ]),
    ])
    latch_region = ParallelRegion(epochs=[
        EpochTrace(0, [
            (Rec.LATCH_ACQ, 7, 1),
            (Rec.COMPUTE, 800),
            (Rec.LATCH_REL, 7),
        ]),
        EpochTrace(1, [
            (Rec.COMPUTE, 10),
            (Rec.LATCH_ACQ, 7, 1),
            (Rec.LATCH_REL, 7),
        ]),
    ])
    txn = TransactionTrace(
        name="golden", segments=[violation_region, latch_region]
    )
    return WorkloadTrace(name="golden", transactions=[txn])


class TestGoldenRender:
    """Pin the rendered timeline of a small recorded run.

    The simulator is deterministic, so the exact ASCII render is stable;
    any drift in event recording or glyph placement shows up as a diff.
    After an intentional change, refresh with::

        PYTHONPATH=src python -m pytest tests/test_timeline.py \\
            --update-golden
    """

    @pytest.fixture(scope="class")
    def rendered(self):
        machine, stats = run_recorded(golden_workload())
        assert stats.primary_violations >= 1
        return render_timeline(machine.events, width=64)

    def test_golden_render_pinned(self, rendered, request):
        if request.config.getoption("--update-golden"):
            GOLDEN.parent.mkdir(parents=True, exist_ok=True)
            GOLDEN.write_text(rendered + "\n")
        assert GOLDEN.exists(), (
            "no golden file; generate one with --update-golden"
        )
        assert rendered + "\n" == GOLDEN.read_text(), (
            "timeline render drifted from tests/golden/"
            "timeline_small.txt; if the change is intentional, re-run "
            "with --update-golden"
        )

    def test_golden_run_shows_violation_and_stall_glyphs(self, rendered):
        rows = "\n".join(rendered.splitlines()[:-2])  # drop axis+legend
        assert "x" in rows  # the rewound violation
        assert "~" in rows  # the latch stall
        assert "C" in rows
