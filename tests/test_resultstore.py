"""Tests for the persistent result store and resuming a killed sweep.

The store's promises:

* a stored result round-trips exactly, under a key blind to provenance
  fields, and corrupt or stale entries read as misses;
* a second runner (a later process) answers from the store without
  simulating;
* every job is committed as it finishes, so a run that dies midway
  leaves each finished job in the store and a rerun simulates only the
  rest — serially and under ``--jobs 2``;
* ``--result-store`` on the CLI gives artifacts byte-identical to a run
  without one.
"""

import dataclasses
import json
from dataclasses import dataclass

import pytest
from conftest import crashing_workload

from repro.harness import (
    ExperimentContext,
    JobRunner,
    SimJob,
    TraceSpec,
    spec_key,
)
from repro.harness.__main__ import main
from repro.harness.parallel import JobFailure
from repro.harness.resultstore import (
    STORE_VERSION,
    ResultStore,
    result_key,
    stats_from_doc,
    stats_to_doc,
)
from repro.sim import ExecutionMode, Machine, MachineConfig
from repro.tpcc import TPCCScale


def _tiny_spec(**overrides):
    base = dict(
        kind="tpcc",
        benchmark="new_order",
        tls_mode=True,
        n_transactions=1,
        seed=42,
        scale=TPCCScale.tiny(),
    )
    base.update(overrides)
    return TraceSpec(**base)


@pytest.fixture(scope="module")
def tiny_stats():
    """One real simulation's stats (baseline mode, tiny trace)."""
    from repro.harness.tracecache import materialize

    trace = materialize(_tiny_spec())
    return Machine(MachineConfig.for_mode(ExecutionMode.BASELINE)).run(
        trace
    )


def _entries(store):
    return sorted(store.root.glob("*/*.json"))


class TestResultStore:
    def test_stats_roundtrip_exact(self, tiny_stats):
        doc = stats_to_doc(tiny_stats)
        json.dumps(doc)  # must be JSON-able as-is
        assert stats_from_doc(doc) == tiny_stats

    def test_put_get_roundtrip(self, tmp_path, tiny_stats):
        store = ResultStore(tmp_path / "store")
        config = MachineConfig.for_mode(ExecutionMode.BASELINE)
        key = spec_key(_tiny_spec())
        assert store.get_stats(key, config) is None
        store.put_stats(key, config, tiny_stats)
        assert store.get_stats(key, config) == tiny_stats

    def test_key_blind_to_provenance_fields(self):
        config = MachineConfig.for_mode(ExecutionMode.BASELINE)
        renamed = dataclasses.replace(config, mode_label="renamed")
        assert config == renamed
        assert result_key("k", config) == result_key("k", renamed)

    def test_key_splits_on_compared_fields(self):
        config = MachineConfig.for_mode(ExecutionMode.BASELINE)
        other = dataclasses.replace(config, n_cpus=config.n_cpus + 1)
        assert result_key("k", config) != result_key("k", other)
        assert result_key("k", config) != result_key("k2", config)

    def test_corrupt_entry_is_a_miss(self, tmp_path, tiny_stats):
        store = ResultStore(tmp_path)
        config = MachineConfig.for_mode(ExecutionMode.BASELINE)
        path = store.put_stats("k", config, tiny_stats)
        path.write_text("{ truncated")
        assert store.get_stats("k", config) is None

    def test_stale_version_is_a_miss(self, tmp_path, tiny_stats):
        store = ResultStore(tmp_path)
        config = MachineConfig.for_mode(ExecutionMode.BASELINE)
        path = store.put_stats("k", config, tiny_stats)
        entry = json.loads(path.read_text())
        entry["version"] = -1
        path.write_text(json.dumps(entry))
        assert store.get_stats("k", config) is None

        # A version-1 entry still carries telemetry fields that
        # SimulationStats no longer has; it must read as a miss, never
        # raise.
        assert STORE_VERSION == 6
        entry["version"] = 1
        entry["stats"]["retired_kernel_batches"] = 0
        path.write_text(json.dumps(entry))
        assert store.get_stats("k", config) is None
        # Likewise a version-2 entry with the retired speculative-batch
        # journal counters.
        del entry["stats"]["retired_kernel_batches"]
        entry["version"] = 2
        entry["stats"]["compiled_spec_batches"] = 3
        entry["stats"]["compiled_batch_squashes"] = 1
        path.write_text(json.dumps(entry))
        assert store.get_stats("k", config) is None
        # And a version-3 entry with the retired, never-set
        # failed-instruction-replay counter.
        del entry["stats"]["compiled_spec_batches"]
        del entry["stats"]["compiled_batch_squashes"]
        entry["version"] = 3
        entry["stats"]["failed_instruction_replays"] = 0
        path.write_text(json.dumps(entry))
        assert store.get_stats("k", config) is None
        # And a version-4 entry with the region-private store counter.
        del entry["stats"]["failed_instruction_replays"]
        entry["version"] = 4
        entry["stats"]["private_line_stores"] = 24
        path.write_text(json.dumps(entry))
        assert store.get_stats("k", config) is None
        # And a version-5 entry with the super-record counter.
        del entry["stats"]["private_line_stores"]
        entry["version"] = 5
        entry["stats"]["compiled_batched_records"] = 96
        path.write_text(json.dumps(entry))
        assert store.get_stats("k", config) is None
        # Even mislabeled as current, the retired fields cannot round-trip.
        entry["version"] = STORE_VERSION
        path.write_text(json.dumps(entry))
        assert store.get_stats("k", config) is None
        # The next commit overwrites the stale entry with a readable one.
        store.put_stats("k", config, tiny_stats)
        assert store.get_stats("k", config) == tiny_stats


class TestRunnerStoreIntegration:
    def test_second_runner_hits_store(self, tmp_path):
        spec = _tiny_spec()
        job = SimJob(
            config=MachineConfig.for_mode(ExecutionMode.BASELINE),
            spec=spec,
        )
        store = ResultStore(tmp_path / "store")
        first = JobRunner(result_store=store)
        stats = first.run([job])[0]
        assert (first.dispatched, first.store_hits) == (1, 0)
        # A brand-new runner (fresh process after a crash, say) answers
        # from disk without simulating.
        second = JobRunner(result_store=store)
        assert second.run([job])[0] == stats
        assert (second.dispatched, second.store_hits) == (0, 1)


@dataclass
class CrashingRunner(JobRunner):
    """Dies in ``run_one`` on its ``crash_at``-th simulation (1-based),
    the way a killed process stops between two jobs."""

    crash_at: int = 0
    started: int = 0

    def run_one(self, job):
        self.started += 1
        if self.started == self.crash_at:
            raise RuntimeError("killed mid-sweep")
        return super().run_one(job)


def _figure5_jobs(benchmarks=("new_order", "payment")):
    """A tiny Figure 5 job list, in run_figure5's order."""
    ctx = ExperimentContext(n_transactions=1, scale=TPCCScale.tiny())
    return [
        SimJob(config=MachineConfig.for_mode(mode),
               spec=ctx.spec(benchmark, mode=mode))
        for benchmark in benchmarks
        for mode in ExecutionMode.ALL
    ]


class TestResume:
    def test_serial_run_keeps_every_finished_job(self, tmp_path):
        jobs = _figure5_jobs()
        k = 4
        store = ResultStore(tmp_path / "store")
        with pytest.raises(RuntimeError, match="killed mid-sweep"):
            CrashingRunner(result_store=store, crash_at=k).run(jobs)
        assert len(_entries(store)) == k - 1
        # The rerun (a fresh process) resumes: the k-1 finished jobs
        # are store hits and only the rest is simulated.
        resumed = JobRunner(result_store=ResultStore(store.root))
        stats = resumed.run(jobs)
        assert resumed.store_hits == k - 1
        assert resumed.dispatched == len(jobs) - (k - 1)
        assert stats == JobRunner().run(jobs)
        assert len(_entries(store)) == len(jobs)

    def test_parallel_run_keeps_every_finished_job(self, tmp_path):
        jobs = _figure5_jobs(benchmarks=("new_order",))
        serial = JobRunner().run(jobs)
        store = ResultStore(tmp_path / "store")
        runner = JobRunner(jobs=2, result_store=store)
        with pytest.raises(JobFailure, match="unknown record kind 99"):
            runner.run(jobs + [
                SimJob(config=MachineConfig(), trace=crashing_workload())
            ])
        committed = 0
        for job, expected in zip(jobs, serial):
            stats = store.get_stats(spec_key(job.spec), job.config)
            if stats is not None:
                assert stats == expected
                committed += 1
        assert committed >= 1
        assert committed == len(_entries(store))


def test_cli_result_store_is_byte_identical(tmp_path, capsys):
    store = tmp_path / "store"
    base = ["figure5", "--tiny", "--transactions", "1", "--no-trace-cache"]

    def run(out, *extra):
        assert main(base + list(extra) + ["--out", str(tmp_path / out)]) == 0
        return (tmp_path / out / "figure5.json").read_bytes()

    cold = run("cold", "--result-store", str(store))
    assert "[result store: 0 hits, 35 simulated]" in capsys.readouterr().out
    warm = run("warm", "--result-store", str(store))
    assert "[result store: 35 hits, 0 simulated]" in capsys.readouterr().out
    direct = run("direct")
    assert "[result store:" not in capsys.readouterr().out
    assert cold == warm == direct
