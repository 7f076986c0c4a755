"""Tests for the parallel job runner and the persistent trace cache.

Determinism is the acceptance gate for the parallel harness: fanning
simulations out over worker processes (or replaying a disk-cached trace)
must produce byte-identical exported results, not just statistically
similar ones.
"""

import dataclasses
import json

import pytest

from repro.harness import (
    ExperimentContext,
    JobRunner,
    SimJob,
    TraceSpec,
    materialize,
    run_figure5,
    run_figure6,
    spec_key,
)
from repro.harness.export import export_json
from repro.harness.parallel import run_jobs_parallel
from repro.harness.tracecache import cache_path
from repro.minidb import EngineOptions
from repro.sim import ExecutionMode, MachineConfig
from repro.tpcc import TPCCScale, generate_workload
from repro.trace import workload_to_dict


def _tiny_spec(**overrides):
    base = dict(
        benchmark="new_order",
        tls_mode=True,
        n_transactions=2,
        seed=42,
        scale=TPCCScale.tiny(),
    )
    base.update(overrides)
    return TraceSpec(**base)


class TestSpecKey:
    def test_stable_across_calls(self):
        assert spec_key(_tiny_spec()) == spec_key(_tiny_spec())

    def test_differs_by_seed(self):
        assert spec_key(_tiny_spec()) != spec_key(_tiny_spec(seed=43))

    def test_differs_by_engine_options(self):
        plain = _tiny_spec()
        tuned = _tiny_spec(
            options=dataclasses.replace(
                EngineOptions.optimized(), shared_log_tail=True
            )
        )
        assert spec_key(plain) != spec_key(tuned)

    def test_resolved_defaults_match_explicit(self):
        # A spec with options left to default keys the same as one that
        # spells the default out — the cache must not fork on that.
        explicit = _tiny_spec(options=EngineOptions.optimized())
        assert spec_key(_tiny_spec()) == spec_key(explicit)


class TestTraceCache:
    def test_hit_equals_fresh_generation(self, tmp_path):
        spec = _tiny_spec()
        first = materialize(spec, cache_dir=tmp_path)   # miss: generates
        cached = materialize(spec, cache_dir=tmp_path)  # hit: from disk
        fresh = generate_workload(
            "new_order", tls_mode=True, n_transactions=2,
            scale=TPCCScale.tiny(),
        ).trace
        assert workload_to_dict(cached) == workload_to_dict(first)
        assert workload_to_dict(cached) == workload_to_dict(fresh)

    def test_miss_writes_file(self, tmp_path):
        spec = _tiny_spec()
        materialize(spec, cache_dir=tmp_path)
        path = cache_path(spec, tmp_path)
        assert path.exists()
        assert "new_order" in path.name and "tls" in path.name

    def test_corrupt_entry_regenerated(self, tmp_path):
        spec = _tiny_spec()
        materialize(spec, cache_dir=tmp_path)
        path = cache_path(spec, tmp_path)
        path.write_text("{not json")
        trace = materialize(spec, cache_dir=tmp_path)
        assert trace.instruction_count > 0
        # The bad entry was replaced with a loadable one.
        json.loads(path.read_text())

    def test_no_cache_dir_generates(self):
        trace = materialize(_tiny_spec(), cache_dir=None)
        assert trace.instruction_count > 0


class TestSimJob:
    def test_requires_spec_or_trace(self):
        with pytest.raises(ValueError):
            SimJob(config=MachineConfig())

    def test_rejects_both(self):
        spec = _tiny_spec()
        trace = materialize(spec, cache_dir=None)
        with pytest.raises(ValueError):
            SimJob(config=MachineConfig(), spec=spec, trace=trace)


class TestParallelDeterminism:
    """Serial and parallel execution must be byte-identical."""

    def _assert_serial_vs_jobs2(self, tmp_path, sweep):
        exported = []
        for jobs in (1, 2):
            ctx = ExperimentContext(
                n_transactions=2, scale=TPCCScale.tiny(),
                runner=JobRunner(jobs=jobs),
            )
            path = tmp_path / f"jobs{jobs}.json"
            export_json(sweep(ctx), path)
            exported.append(path.read_bytes())
        assert exported[0] == exported[1]

    def test_figure5_serial_vs_jobs2(self, tmp_path):
        self._assert_serial_vs_jobs2(
            tmp_path, lambda ctx: run_figure5(ctx, benchmarks=["new_order"])
        )

    def test_figure6_serial_vs_jobs2(self, tmp_path):
        self._assert_serial_vs_jobs2(tmp_path, lambda ctx: run_figure6(
            ctx, benchmarks=("new_order", "delivery_outer"),
            counts=(2, 8), spacings=(100, 400),
        ))

    def test_run_jobs_parallel_preserves_order(self):
        trace = materialize(_tiny_spec(), cache_dir=None)
        jobs = [
            SimJob(config=MachineConfig.for_mode(mode), trace=trace)
            for mode in (
                ExecutionMode.BASELINE,
                ExecutionMode.NO_SUBTHREAD,
                ExecutionMode.BASELINE,
            )
        ]
        serial = [JobRunner().run_one(j) for j in jobs]
        parallel = run_jobs_parallel(jobs, n_workers=2)
        assert [s.total_cycles for s in parallel] == [
            s.total_cycles for s in serial
        ]
        # Same config twice → same stats, in the submitted positions.
        assert parallel[0].total_cycles == parallel[2].total_cycles


class TestTracecacheStatsAggregation:
    """Worker-process STATS movement must reach the parent's counters.

    Workers mutate their own fork of ``tracecache.STATS``, which dies
    with the process; every worker return value therefore carries a
    per-call delta that the parent folds back in.  Without that, traced
    ``--jobs N`` runs report zero generations no matter how many traces
    the workers built.
    """

    def _delta(self, before, after):
        return {k: after[k] - before.get(k, 0) for k in after}

    def test_parallel_generation_totals_match_serial(self, tmp_path):
        from repro.harness.tracecache import STATS

        specs = [_tiny_spec(seed=90), _tiny_spec(seed=91)]
        jobs = [
            SimJob(config=MachineConfig.for_mode(mode), spec=spec)
            for spec in specs
            for mode in (ExecutionMode.TLS_SEQ, ExecutionMode.BASELINE)
        ]
        before = dict(STATS)
        JobRunner(jobs=1, trace_cache=tmp_path / "serial").run(jobs)
        serial = self._delta(before, STATS)

        before = dict(STATS)
        run_jobs_parallel(jobs, n_workers=2,
                          trace_cache=tmp_path / "parallel")
        parallel = self._delta(before, STATS)

        # Each unique spec is generated exactly once either way; before
        # the delta-shipping fix the parallel counter stayed at zero
        # because the generations happened in (and died with) workers.
        assert serial["generated"] == len(specs)
        assert parallel["generated"] == serial["generated"]

        # Rerun over the cache the first run warmed.  Its pre-warm phase
        # reads every spec from disk in fresh workers, so the disk-hit
        # floor holds whichever worker then runs which job (a worker
        # serves the spec it pre-warmed from its own memo).
        before = dict(STATS)
        run_jobs_parallel(jobs, n_workers=2,
                          trace_cache=tmp_path / "parallel")
        rerun = self._delta(before, STATS)
        assert rerun["generated"] == 0
        # Those per-worker hits are visible to the parent too.
        assert rerun["disk_hits"] >= len(specs)


class TestKeyboardInterruptShutdown:
    def test_interrupt_skips_blocking_shutdown(self, monkeypatch):
        """^C must not fall into ``shutdown(wait=True)`` afterwards.

        The interrupt path already called ``shutdown(wait=False,
        cancel_futures=True)``, but the ``finally`` block used to call
        ``shutdown(wait=True)`` unconditionally — re-blocking on every
        in-flight simulation and turning ^C on a long sweep into a
        hang.  Interrupt mid-drain (the realistic window: jobs running
        in workers, parent waiting) and assert no blocking shutdown
        follows.
        """
        from concurrent.futures import ProcessPoolExecutor

        from repro.harness import parallel

        shutdowns = []
        real_shutdown = ProcessPoolExecutor.shutdown

        def spy(self, wait=True, cancel_futures=False):
            shutdowns.append({"wait": wait,
                              "cancel_futures": cancel_futures})
            return real_shutdown(self, wait=wait,
                                 cancel_futures=cancel_futures)

        def interrupt(futures, progress, heartbeats):
            raise KeyboardInterrupt

        monkeypatch.setattr(ProcessPoolExecutor, "shutdown", spy)
        monkeypatch.setattr(parallel, "_drain", interrupt)
        jobs = [
            SimJob(config=MachineConfig.for_mode(mode),
                   spec=_tiny_spec())
            for mode in (ExecutionMode.TLS_SEQ, ExecutionMode.BASELINE)
        ]
        with pytest.raises(KeyboardInterrupt):
            run_jobs_parallel(jobs, n_workers=2)
        assert {"wait": False, "cancel_futures": True} in shutdowns
        assert not any(call["wait"] for call in shutdowns)


class TestResultMemoIdentity:
    def test_memo_key_ignores_provenance_fields(self):
        """Two ``==`` configs differing only in ``mode_label`` dedupe.

        ``dataclasses.astuple`` included ``compare=False`` provenance
        in the memo key, so renaming a mode split the cache and
        re-simulated identical work.
        """
        spec = _tiny_spec()
        config = MachineConfig.for_mode(ExecutionMode.BASELINE)
        renamed = dataclasses.replace(config, mode_label="renamed")
        assert config == renamed  # provenance is compare=False
        runner = JobRunner()
        results = runner.run([
            SimJob(config=config, spec=spec),
            SimJob(config=renamed, spec=spec),
        ])
        assert runner.dispatched == 1
        assert results[0] is results[1]

    def test_memo_key_respects_compared_fields(self):
        spec = _tiny_spec()
        config = MachineConfig.for_mode(ExecutionMode.BASELINE)
        bigger = dataclasses.replace(config, n_cpus=config.n_cpus * 2)
        runner = JobRunner()
        runner.run([
            SimJob(config=config, spec=spec),
            SimJob(config=bigger, spec=spec),
        ])
        assert runner.dispatched == 2
