"""A sampled unit's run with the unit continues its run without it.

:meth:`repro.harness.runner.JobRunner.run_one` runs an inline-trace job
whose trace extends the previous job's (same ``warmup`` object, equal
effective config) on the previous job's machine, so each sampled unit
is warmed once and its tail simulated once.  Pinned here:

* a continued job's result equals a fresh simulation's, field by field
  and in the exported bytes, on the plain, invariant-checked,
  interpreted and traced paths;
* exactly the jobs the rule names continue: one machine per sampled
  unit and mode, one warm per unit and mode that has a window;
* a second ``Machine.run`` leaves the first run's result unchanged (the
  result used to alias the machine's live per-CPU counters).
"""

from __future__ import annotations

import copy
import dataclasses
import json
from dataclasses import dataclass, field
from typing import List

import pytest

from repro.harness import runner as runner_module
from repro.harness.export import export_json
from repro.harness.runner import JobRunner, SimJob
from repro.harness.sampled import run_huge, unit_window
from repro.obs.tracer import SpanTracer
from repro.sim import ExecutionMode, Machine, MachineConfig
from repro.tpcc import TPCCScale, generate_workload, mix_type_sequence
from repro.trace import WorkloadTrace
from repro.trace.sampling import SamplerConfig, build_plan

#: Both run_huge modes plus NO_SUBTHREAD.
MODES = (
    ExecutionMode.SEQUENTIAL, ExecutionMode.BASELINE,
    ExecutionMode.NO_SUBTHREAD,
)
N_TRANSACTIONS = 30
SEED = 3
#: Units 0 and 1 have no warming window, the other six have one.
SAMPLER = SamplerConfig(rate=0.1, warmup=2, functional_window=3, seed=SEED)


class CountingMachine(Machine):
    """A Machine that counts its constructions and warms."""

    built = 0
    warms = 0

    def __init__(self, *args, **kwargs):
        CountingMachine.built += 1
        super().__init__(*args, **kwargs)

    def functional_warm(self, workload):
        CountingMachine.warms += 1
        super().functional_warm(workload)


@pytest.fixture
def counting(monkeypatch):
    """Route the runner's machines through :class:`CountingMachine`."""
    monkeypatch.setattr(runner_module, "Machine", CountingMachine)
    monkeypatch.setattr(CountingMachine, "built", 0)
    monkeypatch.setattr(CountingMachine, "warms", 0)
    return CountingMachine


@dataclass
class RecordingRunner(JobRunner):
    """Keeps every result that goes through ``run_one``."""

    stats_run: List[object] = field(default_factory=list)

    def run_one(self, job):
        stats = super().run_one(job)
        self.stats_run.append(stats)
        return stats


@dataclass
class FreshRunner(RecordingRunner):
    """Simulates every job through a new runner's ``run_one``, so no job
    continues another."""

    def run_one(self, job):
        stats = JobRunner(
            config_overrides=self.config_overrides, tracer=self.tracer,
        ).run_one(job)
        self.stats_run.append(stats)
        return stats


def _huge(runner):
    return run_huge(
        n_transactions=N_TRANSACTIONS, seed=SEED, sampler=SAMPLER,
        runner=runner, scale=TPCCScale.tiny(), modes=MODES,
    )


def _records(path, name):
    return [
        r for r in map(json.loads, path.read_text().splitlines())
        if r["type"] == "span" and r["name"] == name
    ]


@pytest.mark.parametrize("variant", [
    "plain", "check_invariants", "interpreted", "traced",
])
def test_continued_jobs_equal_fresh_ones(variant, counting, tmp_path):
    overrides = {
        "check_invariants": {"check_invariants": True},
        "interpreted": {"compile_traces": False},
    }.get(variant)

    def make(cls, name):
        tracer = (
            SpanTracer(tmp_path / f"{name}.jsonl")
            if variant == "traced" else None
        )
        return cls(config_overrides=overrides, tracer=tracer)

    fresh = make(FreshRunner, "fresh")
    fresh_result = _huge(fresh)
    counting.built = counting.warms = 0
    continued = make(RecordingRunner, "continued")
    result = _huge(continued)

    assert len(continued.stats_run) == continued.dispatched == len(
        fresh.stats_run
    )
    for mine, theirs in zip(continued.stats_run, fresh.stats_run):
        assert mine == theirs
        assert mine.dependence_pairs == theirs.dependence_pairs
        assert [c.cycles for c in mine.per_cpu] == [
            c.cycles for c in theirs.per_cpu
        ]
    export_json(result, tmp_path / "continued.json")
    export_json(fresh_result, tmp_path / "fresh.json")
    assert (tmp_path / "continued.json").read_bytes() == (
        tmp_path / "fresh.json"
    ).read_bytes()

    plan = build_plan(
        N_TRANSACTIONS, SAMPLER,
        labels=mix_type_sequence(n_transactions=N_TRANSACTIONS, seed=SEED),
    )
    windows = [unit_window(SAMPLER, u) for u in plan.sampled_units]
    windowed = sum(1 for wlo, lo in windows if lo > wlo)
    assert 0 < windowed < len(windows)
    assert counting.built == len(MODES) * len(windows)
    assert counting.warms == len(MODES) * windowed

    if variant == "traced":
        continued.tracer.close()
        fresh.tracer.close()
        log = tmp_path / "continued.jsonl"
        assert len(_records(log, "harness.job")) == continued.dispatched
        assert len(_records(log, "machine.warm")) == counting.warms
        assert len(_records(tmp_path / "fresh.jsonl", "machine.warm")) == (
            2 * counting.warms
        )


@pytest.fixture(scope="module")
def tiny():
    """Three tiny NEW ORDER transactions (TLS mode)."""
    return generate_workload(
        "new_order", tls_mode=True, n_transactions=3,
        scale=TPCCScale.tiny(),
    ).trace


def _part(trace, *indices):
    return WorkloadTrace(
        name=trace.name,
        transactions=[trace.transactions[i] for i in indices],
    )


CONFIG = MachineConfig.for_mode(ExecutionMode.BASELINE)


@pytest.mark.parametrize("case, continues", [
    ("extends", True),
    ("mode_label_differs", True),
    ("compared_field_differs", False),
    ("other_warmup_object", False),
    ("same_transactions", False),
    ("other_first_transaction", False),
    ("shorter", False),
])
def test_which_jobs_continue(tiny, counting, case, continues):
    """The job after ``first`` continues it only when it has the same
    warmup object, an equal effective config (``mode_label`` does not
    take part) and a trace that strictly extends ``first``'s."""
    warm = _part(tiny, 0)
    first = SimJob(config=CONFIG, trace=_part(tiny, 1, 2), warmup=warm)
    second = {
        "extends": SimJob(CONFIG, trace=_part(tiny, 1, 2, 0), warmup=warm),
        "mode_label_differs": SimJob(
            dataclasses.replace(CONFIG, mode_label="other"),
            trace=_part(tiny, 1, 2, 0), warmup=warm,
        ),
        "compared_field_differs": SimJob(
            dataclasses.replace(CONFIG, victim_entries=32),
            trace=_part(tiny, 1, 2, 0), warmup=warm,
        ),
        "other_warmup_object": SimJob(
            CONFIG, trace=_part(tiny, 1, 2, 0), warmup=_part(tiny, 0),
        ),
        "same_transactions": SimJob(
            CONFIG, trace=_part(tiny, 1, 2), warmup=warm,
        ),
        "other_first_transaction": SimJob(
            CONFIG, trace=_part(tiny, 2, 1, 0), warmup=warm,
        ),
        "shorter": SimJob(CONFIG, trace=_part(tiny, 1), warmup=warm),
    }[case]
    results = JobRunner().run([first, second])
    assert counting.built == (1 if continues else 2)
    assert counting.warms == counting.built
    assert results == [JobRunner().run_one(job) for job in (first, second)]


def test_run_releases_the_kept_machine(tiny, counting):
    """Each ``run`` call starts from no kept machine: a job never
    continues one simulated by an earlier call."""
    runner = JobRunner()
    runner.run([SimJob(CONFIG, trace=_part(tiny, 0))])
    runner.run([SimJob(CONFIG, trace=_part(tiny, 0, 1))])
    assert counting.built == 2


def test_second_run_leaves_first_result_unchanged(tiny):
    """A machine accumulates statistics over its runs, and each result
    is a snapshot: running on after a result was returned must not
    change it (its per-CPU counters used to be the machine's own)."""
    machine = Machine(CONFIG)
    first = machine.run(_part(tiny, 0, 1))
    before = copy.deepcopy(first)
    second = machine.run(_part(tiny, 2))
    assert first == before
    assert first == Machine(CONFIG).run(_part(tiny, 0, 1))
    assert second == Machine(CONFIG).run(tiny)
