"""A run whose sub-thread budget never bound equals every run with a
larger budget, so the job runner answers those jobs without simulating.

``TLSEngine.budget_bound`` records whether an epoch holding all
``max_subthreads`` contexts ever ended a checkpoint interval at or past
its spacing; :meth:`repro.harness.runner.JobRunner._simulate` answers a
spec job from an earlier one on the same trace whose config differs only
in a smaller budget that never bound.  Pinned here:

* over random fuzz workloads and machines (fixed spacing, no
  predictor-placed checkpoints), a never-bound run's stats equal a
  larger budget's field for field;
* the tiny Figure 6 grid derives 12 of its 60 TLS cells through one
  runner, each equal to a fresh simulation, while every job is still
  dispatched; a pool run returns the same stats;
* Figure 5's job list derives none;
* a traced run reports the count in its ``run.finish`` event and the
  ``repro.harness report`` header.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.harness.__main__ import main as harness_main
from repro.harness.figure6 import figure6_jobs
from repro.harness.runner import ExperimentContext, JobRunner, SimJob
from repro.obs import lint
from repro.obs.report import render_report
from repro.sim import ExecutionMode, Machine, MachineConfig
from repro.tpcc import BENCHMARKS, TPCCScale
from repro.verify.fuzz import (
    PROFILES, random_machine_config, random_workload,
)

#: Fuzz seeds per profile.
SEEDS = 40
#: Budgets every fuzz case runs under.
BUDGETS = (1, 2, 4, 8)


def _fuzz_run(seed: int, profile: str, budget: int):
    """Seed ``seed``'s case under ``budget`` contexts, on a freshly
    generated workload (so no run reuses another's compiled regions):
    ``(every stats field, budget_bound)``."""
    rng = random.Random(seed)
    workload = random_workload(rng, profile=profile)
    config = random_machine_config(rng, profile=profile).with_tls(
        subthread_spacing=rng.randint(10, 200),
        adaptive_spacing=False,
        predictor_subthreads=False,
        max_subthreads=budget,
    )
    machine = Machine(config)
    stats = machine.run(workload)
    # asdict holds every field, compare=False telemetry and
    # dependence_pairs included.
    return dataclasses.asdict(stats), machine.engine.budget_bound


@pytest.mark.parametrize("profile", PROFILES)
def test_unbound_budget_equals_every_larger_budget(profile):
    pairs = 0
    for seed in range(SEEDS):
        runs = [_fuzz_run(seed, profile, budget) for budget in BUDGETS]
        for i, (small, bound) in enumerate(runs):
            if bound:
                continue
            for j in range(i + 1, len(BUDGETS)):
                pairs += 1
                assert runs[j][0] == small, (
                    f"{profile} seed {seed}: budget {BUDGETS[j]} differs "
                    f"from never-bound budget {BUDGETS[i]}"
                )
    # About 25 pairs per profile, so the property is exercised.
    assert pairs >= 10


@pytest.mark.parametrize("policy", ["adaptive_spacing",
                                    "predictor_subthreads"])
def test_budget_always_binds_under_budget_reading_policies(policy):
    config = MachineConfig().with_tls(**{policy: True})
    assert Machine(config).engine.budget_bound
    assert not Machine(MachineConfig()).engine.budget_bound


class RecordingRunner(JobRunner):
    """A JobRunner that keeps every job it answered from an earlier
    one, with the stats it returned."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.derived_jobs = []

    def run_one(self, job):
        before = self.derived
        stats = super().run_one(job)
        if self.derived > before:
            self.derived_jobs.append((job, stats))
        return stats


def _tiny_ctx(runner: JobRunner) -> ExperimentContext:
    return ExperimentContext(
        n_transactions=2, seed=42, scale=TPCCScale.tiny(), runner=runner
    )


def test_figure6_derives_unbound_cells():
    runner = RecordingRunner(jobs=1, trace_cache=None)
    ctx = _tiny_ctx(runner)
    jobs = figure6_jobs(ctx)
    serial = ctx.run(jobs)
    assert runner.dispatched == len(jobs) == 65
    assert runner.derived == len(runner.derived_jobs) == 12
    for job, stats in runner.derived_jobs:
        fresh = Machine(job.config).run(runner.trace_for(job.spec))
        assert fresh == stats
        assert fresh.dependence_pairs == stats.dependence_pairs

    pool = JobRunner(jobs=2, trace_cache=None)
    assert pool.run(figure6_jobs(_tiny_ctx(pool))) == serial
    # Workers derive only the jobs that follow their source in the same
    # worker, and report each one back.
    assert pool.derived <= 12


def test_figure5_derives_nothing():
    runner = JobRunner(jobs=1, trace_cache=None)
    ctx = _tiny_ctx(runner)
    runner.run([
        SimJob(config=MachineConfig.for_mode(mode),
               spec=ctx.spec(benchmark, mode=mode))
        for benchmark in BENCHMARKS
        for mode in ExecutionMode.ALL
    ])
    assert runner.dispatched == 35
    assert runner.derived == 0


def test_report_header_counts_derived_jobs(tmp_path, capsys):
    log = tmp_path / "run.jsonl"
    assert harness_main([
        "figure6", "--tiny", "--transactions", "2", "--no-trace-cache",
        "--trace-out", str(log),
    ]) == 0
    capsys.readouterr()
    assert lint(log) == []
    header = render_report(log).splitlines()[3]
    assert header.startswith("derived jobs: 12 ")
