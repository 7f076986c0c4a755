"""Tests for the observability subsystem (repro.obs)."""

from __future__ import annotations

import glob
import json
import multiprocessing
import os
import re
import signal
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool

import pytest
from conftest import crashing_workload

from repro.core.profiling import DependenceProfiler, ExposedLoadTable
from repro.harness.__main__ import main as harness_main
from repro.harness.export import export_json
from repro.harness.parallel import (
    JobFailure,
    _run_job,
    describe_job,
    run_jobs_parallel,
)
from repro.harness.runner import JobRunner, SimJob
from repro.harness.tracecache import TraceSpec
from repro.obs import (
    ProgressReporter,
    SpanTracer,
    assert_valid,
    atomic_output_file,
    atomic_write_json,
    atomic_write_text,
    build_manifest,
    config_hash,
    finish_manifest,
    format_eta,
    lint,
    manifest_path,
    render_report,
    write_manifest,
)
from repro.obs.schema import RunLogError
from repro.sim import ExecutionMode, Machine, MachineConfig
from repro.sim.stats import METRIC_SOURCES
from repro.tpcc import TPCCScale
from repro.trace.events import (
    EpochTrace,
    ParallelRegion,
    Rec,
    TransactionTrace,
    WorkloadTrace,
)


def tiny_workload(work: int = 200) -> WorkloadTrace:
    """Two conflicting epochs: epoch 1's early load of X is violated by
    epoch 0's late store, so violations/rewinds/profiled pairs all show
    up even at this size."""
    epochs = [
        EpochTrace(0, [
            (Rec.COMPUTE, 3 * work),
            (Rec.STORE, 0x1000, 4, 0x400100),
            (Rec.COMPUTE, work // 4),
        ]),
        EpochTrace(1, [
            (Rec.COMPUTE, work // 4),
            (Rec.LOAD, 0x1000, 4, 0x400200),
            (Rec.COMPUTE, 2 * work),
        ]),
    ]
    txn = TransactionTrace(
        name="t", segments=[ParallelRegion(epochs=epochs)]
    )
    return WorkloadTrace(name="tiny", transactions=[txn])


# ----------------------------------------------------------------------
# Atomic writes
# ----------------------------------------------------------------------


class TestAtomicIO:
    def test_write_text_creates_parents(self, tmp_path):
        path = tmp_path / "a" / "b" / "out.txt"
        atomic_write_text(path, "hello")
        assert path.read_text() == "hello"

    def test_failure_leaves_original_and_no_tmp(self, tmp_path):
        path = tmp_path / "out.json"
        path.write_text("original")
        with pytest.raises(RuntimeError):
            with atomic_output_file(path) as tmp:
                with open(tmp, "w") as fh:
                    fh.write("partial")
                raise RuntimeError("interrupted mid-write")
        assert path.read_text() == "original"
        assert os.listdir(tmp_path) == ["out.json"]

    def test_fsyncs_temp_file_then_directory(self, tmp_path, monkeypatch):
        """The commit sequence is write → fsync file → rename → fsync dir.

        ``os.replace`` alone only orders metadata: after a power loss an
        un-fsynced temp file can replay as truncated even though the
        rename committed.  Record every fsync by inode and assert both
        the data fsync (before the rename) and the directory fsync
        (after it) happen, in that order.
        """
        synced = []
        real_fsync = os.fsync

        def spy(fd):
            synced.append(os.fstat(fd).st_ino)
            return real_fsync(fd)

        monkeypatch.setattr(os, "fsync", spy)
        path = tmp_path / "out.json"
        with atomic_output_file(path) as tmp:
            with open(tmp, "w") as fh:
                fh.write("payload")
            tmp_ino = os.stat(tmp).st_ino
        dir_ino = os.stat(tmp_path).st_ino
        assert tmp_ino in synced
        assert dir_ino in synced
        assert synced.index(tmp_ino) < synced.index(dir_ino)

    def test_fsync_failure_aborts_commit(self, tmp_path, monkeypatch):
        """Fault injection: a failed data fsync must not commit.

        If the disk rejects the flush, the destination keeps its old
        content and the temp file is cleaned up — never a renamed,
        possibly-truncated artifact.
        """
        path = tmp_path / "out.json"
        path.write_text("original")

        def broken_fsync(fd):
            raise OSError(5, "injected I/O error")

        monkeypatch.setattr(os, "fsync", broken_fsync)
        with pytest.raises(OSError, match="injected"):
            with atomic_output_file(path) as tmp:
                with open(tmp, "w") as fh:
                    fh.write("new content")
        assert path.read_text() == "original"
        assert os.listdir(tmp_path) == ["out.json"]

    def test_directory_fsync_failure_is_tolerated(self):
        """Platforms that can't open directories still commit the file:
        the directory fsync is best-effort and must never raise."""
        from repro.obs.atomicio import _fsync_dir

        _fsync_dir("/no/such/directory/anywhere")  # must not raise

    def test_json_trailing_newline_flag(self, tmp_path):
        with_nl = tmp_path / "a.json"
        without = tmp_path / "b.json"
        atomic_write_json(with_nl, {"x": 1})
        atomic_write_json(without, {"x": 1}, trailing_newline=False)
        assert with_nl.read_bytes().endswith(b"\n")
        assert not without.read_bytes().endswith(b"\n")

    def test_export_json_byte_format_unchanged(self, tmp_path):
        # CI cmp-compares results/*.json across serial/parallel runs;
        # the atomic rewrite must keep the historical byte format.
        path = tmp_path / "r.json"
        doc = {"b": [1, 2], "a": "x"}
        export_json(doc, path)
        assert path.read_bytes() == json.dumps(
            doc, indent=1, sort_keys=True
        ).encode()


# ----------------------------------------------------------------------
# Manifests
# ----------------------------------------------------------------------


class TestManifest:
    def test_required_keys_present(self):
        m = build_manifest(
            command=["python", "-m", "repro.harness", "figure5"],
            config={"experiment": "figure5"},
            seed=42,
        )
        for key in (
            "format", "version", "config_hash", "package_version",
            "python_version", "cpu_count", "created_unix", "git_sha",
        ):
            assert key in m
        assert m["seed"] == 42
        assert m["wall_seconds"] is None

    def test_config_hash_depends_on_content_only(self):
        assert config_hash({"a": 1, "b": 2}) == config_hash(
            {"b": 2, "a": 1}
        )
        assert config_hash({"a": 1}) != config_hash({"a": 2})

    def test_finish_manifest_copies(self):
        m = build_manifest(config={})
        done = finish_manifest(m, 1.25, trace_spec_keys=["b", "a"])
        assert m["wall_seconds"] is None
        assert done["wall_seconds"] == 1.25
        assert done["trace_spec_keys"] == ["a", "b"]

    def test_sidecar_path_and_write(self, tmp_path):
        artifact = tmp_path / "figure5.json"
        assert manifest_path(artifact).name == "figure5.manifest.json"
        written = write_manifest(artifact, build_manifest(config={}))
        assert written.exists()
        assert json.loads(written.read_text())["format"] == (
            "repro-run-manifest"
        )


# ----------------------------------------------------------------------
# Tracer + schema lint
# ----------------------------------------------------------------------


class TestTracerSchema:
    def test_tracer_output_is_schema_clean(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with SpanTracer(path, manifest=build_manifest(config={})) as tr:
            with tr.span("outer", label="x"):
                with tr.span("inner"):
                    tr.counter("c", {"a": 1, "b": 2.5})
                tr.event("e", detail="fine")
        assert lint(path) == []
        assert_valid(path)

    def test_parent_attribution(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with SpanTracer(path, manifest=build_manifest(config={})) as tr:
            with tr.span("outer"):
                with tr.span("inner"):
                    pass
        spans = {
            r["name"]: r
            for r in map(json.loads, path.read_text().splitlines())
            if r["type"] == "span"
        }
        # Spans are written at exit, so inner precedes outer in the file
        # but still names outer as its parent.
        assert spans["inner"]["parent"] == "outer"
        assert spans["outer"]["parent"] is None
        assert spans["inner"]["t0"] >= spans["outer"]["t0"]

    def test_lint_catches_missing_manifest(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with SpanTracer(path) as tr:  # no manifest record
            tr.event("e")
        issues = lint(path)
        assert any("manifest" in issue for issue in issues)

    def test_lint_catches_bad_records(self, tmp_path):
        path = tmp_path / "run.jsonl"
        lines = [
            {"type": "manifest", "seq": 0, "manifest": {"format": "bad"}},
            {"type": "span", "seq": 99, "name": "s",
             "t0": 5.0, "t1": 1.0, "dur": 2.0, "parent": None,
             "attrs": {}},
            {"type": "mystery", "seq": 2},
            {"type": "counter", "seq": 3, "name": "c",
             "values": {"nan-ish": "not-a-number"}},
        ]
        path.write_text(
            "\n".join(json.dumps(rec) for rec in lines)
            + "\nnot json at all\n"
        )
        issues = "\n".join(lint(path))
        assert "seq 99" in issues
        assert "ends before it starts" in issues
        assert "unknown record type" in issues
        assert "not a finite number" in issues
        assert "invalid JSON" in issues
        assert "manifest" in issues  # wrong format + missing keys
        with pytest.raises(RunLogError):
            assert_valid(path)


# ----------------------------------------------------------------------
# Machine metrics
# ----------------------------------------------------------------------


class TestMetricsRegistry:
    def test_machine_metrics_match_stats(self):
        machine = Machine(MachineConfig())
        stats = machine.run(tiny_workload())
        metrics = machine.metrics()
        # One counter table, checked in both directions: every stats
        # row has a counter and every counter has a stats row.
        assert set(metrics) == set(METRIC_SOURCES)
        for metric, attr in METRIC_SOURCES.items():
            assert metrics[metric] == getattr(stats, attr), metric
        # The run above must actually exercise the protocol.
        assert stats.primary_violations >= 1
        assert stats.dependence_pairs
        load_pc, store_pc = stats.dependence_pairs[0][:2]
        assert (load_pc, store_pc) == (0x400200, 0x400100)

    def test_stats_counters_cover_cycles(self):
        stats = Machine(MachineConfig()).run(tiny_workload())
        counters = stats.counters()
        cycle_total = sum(
            v for k, v in counters.items() if k.startswith("cycles.")
        )
        assert cycle_total == pytest.approx(
            stats.n_cpus * stats.total_cycles
        )
        assert counters["machine.n_cpus"] == stats.n_cpus


# ----------------------------------------------------------------------
# Traced runs end-to-end
# ----------------------------------------------------------------------


class TestTracedRunner:
    def test_traced_jobs_and_report(self, tmp_path):
        path = tmp_path / "run.jsonl"
        tracer = SpanTracer(
            path, manifest=build_manifest(config={"experiment": "test"})
        )
        runner = JobRunner(jobs=1, trace_cache=None, tracer=tracer)
        jobs = [
            SimJob(config=MachineConfig(), trace=tiny_workload()),
            SimJob(config=MachineConfig(n_cpus=2),
                   trace=tiny_workload(work=120)),
        ]
        results = runner.run(jobs)
        tracer.close()
        assert len(results) == 2
        assert lint(path) == []
        records = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        names = {
            r.get("name") for r in records if r["type"] == "span"
        }
        assert "harness.job" in names
        assert "machine.segment" in names
        counters = [
            r for r in records
            if r["type"] == "counter" and r["name"] == "sim.stats"
        ]
        assert len(counters) == 2
        assert "cycles.busy" in counters[0]["values"]
        report = render_report(path)
        assert "Top spans" in report
        assert "Cycle breakdown" in report
        assert "Hottest dependences" in report
        assert "0x400200" in report

    def test_report_groups_cycles_per_mode(self, tmp_path):
        # A log mixing execution modes must not sum their Figure-5
        # breakdowns together: each mode gets its own bar, in mode order.
        path = tmp_path / "run.jsonl"
        tracer = SpanTracer(
            path, manifest=build_manifest(config={"experiment": "test"})
        )
        runner = JobRunner(jobs=1, trace_cache=None, tracer=tracer)
        jobs = [
            SimJob(config=MachineConfig.for_mode(mode),
                   trace=tiny_workload())
            for mode in ("tls_seq", "baseline")
        ]
        runner.run(jobs)
        tracer.close()
        records = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        modes = [
            r["attrs"].get("mode") for r in records
            if r["type"] == "counter" and r["name"] == "sim.stats"
        ]
        assert modes == ["tls_seq", "baseline"]
        report = render_report(path)
        assert "per mode" in report
        assert "tls_seq" in report and "baseline" in report
        # tls_seq serializes on one CPU: its idle fraction dwarfs the
        # baseline's, which a cross-mode sum would have hidden.  Both
        # mode rows are present in the per-mode cycle table.
        lines = [ln for ln in report.splitlines() if "idle" in ln]
        assert any("tls_seq" in ln for ln in lines)
        assert any("baseline" in ln for ln in lines)

    def test_report_header_reads_the_closing_event(self, tmp_path,
                                                   capsys):
        """The header's wall time and trace count come from the closing
        ``run.finish`` event: the log's opening manifest is written
        before either exists."""
        log = tmp_path / "run.jsonl"
        assert harness_main([
            "table2", "--tiny", "--transactions", "1", "--no-trace-cache",
            "--trace-out", str(log),
        ]) == 0
        capsys.readouterr()
        header = render_report(log).splitlines()[2]
        assert re.fullmatch(r"wall time: \d+(\.\d+)?s  traces: 14", header)

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_report_counts_traces_under_any_jobs(self, tmp_path, capsys,
                                                 jobs):
        """Pool workers materialize their traces without a
        ``harness.trace`` span, so the count comes from the runner's
        spec keys: Figure 2's five traces under any ``--jobs``."""
        log = tmp_path / "run.jsonl"
        assert harness_main([
            "figure2", "--tiny", "--transactions", "1", "--no-trace-cache",
            "--jobs", jobs, "--trace-out", str(log),
        ]) == 0
        capsys.readouterr()
        header = render_report(log).splitlines()[2]
        assert header.endswith("  traces: 5")

    def test_parallel_jobs_write_job_spans(self, tmp_path, capsys):
        """Under ``--jobs 2`` the parent writes one ``harness.job`` span
        per worker job, labelled like the serial path's, under the
        experiment span."""
        log = tmp_path / "run.jsonl"
        assert harness_main([
            "figure2", "--tiny", "--transactions", "1", "--no-trace-cache",
            "--jobs", "2", "--trace-out", str(log),
            "--out", str(tmp_path / "out"),
        ]) == 0
        capsys.readouterr()
        assert lint(log) == []
        records = [json.loads(line) for line in log.read_text().splitlines()]
        spans = [
            r for r in records
            if r["type"] == "span" and r["name"] == "harness.job"
        ]
        assert len(spans) == 10
        assert all(r["parent"] == "experiment.figure2" for r in spans)
        counter_labels = [
            r["attrs"]["job"] for r in records
            if r["type"] == "counter" and r["name"] == "sim.stats"
        ]
        assert sorted(r["attrs"]["job"] for r in spans) == sorted(
            counter_labels
        )

    def test_untraced_machine_identical(self):
        # Tracing changes observation only, never simulation results.
        plain = Machine(MachineConfig()).run(tiny_workload())
        runner = JobRunner(jobs=1, trace_cache=None)
        traced = runner.run(
            [SimJob(config=MachineConfig(), trace=tiny_workload())]
        )[0]
        assert plain == traced


#: A sampled Figure-5 run whose later units carry a functional-warming
#: prefix (one detailed warmup transaction out of four).
SAMPLED_ARGS = (
    "figure5", "--tiny", "--sample-rate", "0.3", "--sample-warmup", "1",
    "--no-trace-cache",
)


@pytest.fixture(scope="module")
def sampled_runs(tmp_path_factory):
    """The sampled run traced and untraced (side by side); yields the
    two output directories."""
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    traced = tmp_path_factory.mktemp("sampled_traced")
    plain = tmp_path_factory.mktemp("sampled_plain")
    procs = [
        subprocess.Popen(
            [sys.executable, "-m", "repro.harness", *SAMPLED_ARGS,
             "--out", str(out), *extra],
            env=env, cwd=REPO, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True,
        )
        for out, extra in (
            (traced, ("--trace-out", str(traced / "run.jsonl"))),
            (plain, ()),
        )
    ]
    for proc in procs:
        _, err = proc.communicate(timeout=600)
        assert proc.returncode == 0, err
    return traced, plain


class TestTracedSampledRun:
    def test_warm_spans_in_clean_log(self, sampled_runs):
        traced, _ = sampled_runs
        log = traced / "run.jsonl"
        assert lint(log) == []
        warms = [
            r for r in map(json.loads, log.read_text().splitlines())
            if r["type"] == "span" and r["name"] == "machine.warm"
        ]
        assert warms
        assert all(w["parent"] == "harness.job" for w in warms)
        assert all(w["attrs"]["records"] > 0 for w in warms)
        assert "machine.warm" in render_report(log)

    def test_tracing_leaves_artifact_bytes_alone(self, sampled_runs):
        traced, plain = sampled_runs
        name = "figure5_sampled.json"
        assert (traced / name).read_bytes() == (plain / name).read_bytes()


# ----------------------------------------------------------------------
# Progress / heartbeats
# ----------------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.t = 100.0

    def __call__(self):
        return self.t


class TestProgress:
    def test_format_eta(self):
        assert format_eta(42) == "42s"
        assert format_eta(125) == "2m05s"
        assert format_eta(3720) == "1h02m"

    def test_render_counts_rate_and_eta(self):
        clock = FakeClock()
        reporter = ProgressReporter(total=8, clock=clock)
        clock.t += 4.0
        reporter.set_done(4)
        line = reporter.render()
        assert "4/8" in line
        assert "1.00/s" in line
        assert "eta 4s" in line

    def test_stalled_worker_flagged(self):
        clock = FakeClock()
        reporter = ProgressReporter(
            total=2, stall_after=30.0, clock=clock
        )
        reporter.observe_heartbeats({
            7: ("new_order[abcd1234]", clock.t - 45.0),
            8: ("stock_level[ffff0000]", clock.t - 1.0),
        })
        line = reporter.render()
        assert "w7: new_order[abcd1234] (45s ago) STALLED?" in line
        assert "w8: stock_level[ffff0000] (1s ago)" in line
        assert line.count("STALLED?") == 1

    def test_maybe_render_rate_limited(self, capsys):
        clock = FakeClock()
        reporter = ProgressReporter(total=2, interval=10.0, clock=clock)
        reporter.maybe_render()
        reporter.maybe_render()  # within the interval: suppressed
        clock.t += 11.0
        reporter.maybe_render()
        assert len(capsys.readouterr().err.splitlines()) == 2


# ----------------------------------------------------------------------
# Parallel failure identity
# ----------------------------------------------------------------------


class TestParallelFailures:
    def test_worker_crash_names_the_job(self):
        jobs = [
            SimJob(config=MachineConfig(), trace=tiny_workload()),
            SimJob(config=MachineConfig(), trace=crashing_workload()),
        ]
        with pytest.raises(JobFailure) as exc_info:
            run_jobs_parallel(jobs, n_workers=2)
        message = str(exc_info.value)
        assert "inline-trace" in message
        assert "cpus=4" in message
        assert "unknown record kind 99" in message

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the patched worker entry reaches workers only by fork",
    )
    def test_killed_worker_names_the_unfinished_jobs(self, monkeypatch):
        monkeypatch.setattr("repro.harness.parallel._run_job",
                            _sigkill_on_baseline)
        spec = TraceSpec(kind="tpcc", benchmark="new_order", tls_mode=True,
                         n_transactions=1, seed=42, scale=TPCCScale.tiny())
        jobs = [
            SimJob(config=MachineConfig.for_mode(mode), spec=spec)
            for mode in (ExecutionMode.TLS_SEQ, ExecutionMode.BASELINE,
                         ExecutionMode.NO_SUBTHREAD)
        ]
        with pytest.raises(JobFailure) as exc_info:
            run_jobs_parallel(jobs, n_workers=2)
        message = str(exc_info.value)
        assert "died abruptly" in message
        assert describe_job(jobs[1]) in message
        assert "unfinished job(s)" in message
        assert "same --result-store resumes" in message
        assert isinstance(exc_info.value.__cause__, BrokenProcessPool)

    def test_success_path_matches_serial(self):
        jobs = [
            SimJob(config=MachineConfig(), trace=tiny_workload()),
            SimJob(config=MachineConfig(), trace=tiny_workload(work=120)),
        ]
        parallel = run_jobs_parallel(jobs, n_workers=2)
        serial = [Machine(j.config).run(j.trace) for j in jobs]
        assert parallel == serial


def _sigkill_on_baseline(job):
    """Worker entry that dies like ``kill -9`` on the BASELINE job.

    Module-level so the pool can pickle it by name; a forked worker
    finds this module already imported.
    """
    if job.config.mode_label == ExecutionMode.BASELINE:
        os.kill(os.getpid(), signal.SIGKILL)
    return _run_job(job)


# ----------------------------------------------------------------------
# ExposedLoadTable shift/mask indexing
# ----------------------------------------------------------------------


class TestExposedLoadTableIndexing:
    @pytest.mark.parametrize("entries", [64, 256, 1024])
    @pytest.mark.parametrize("line_size", [16, 32, 64])
    def test_shift_mask_byte_identical(self, entries, line_size):
        table = ExposedLoadTable(entries=entries, line_size=line_size)
        assert table._line_shift is not None
        for addr in range(0, entries * line_size * 3, 7):
            assert table._index(addr) == (
                (addr // line_size) % entries
            ), addr

    def test_non_power_of_two_line_size_falls_back(self):
        table = ExposedLoadTable(entries=64, line_size=48)
        assert table._line_shift is None
        for addr in range(0, 64 * 48 * 2, 5):
            assert table._index(addr) == (addr // 48) % 64

    def test_update_lookup_roundtrip(self):
        table = ExposedLoadTable(entries=64, line_size=32)
        table.update(0x1000, 0x400100)
        assert table.lookup(0x1000) == 0x400100
        # Aliasing line (same index, different tag) misses.
        assert table.lookup(0x1000 + 64 * 32) is None


class TestDependenceProfilerPairs:
    def test_pairs_ranked_and_plain(self):
        profiler = DependenceProfiler()
        profiler.record(0x10, 0x20, 100.0)
        profiler.record(0x30, 0x40, 900.0)
        profiler.record(0x10, 0x20, 50.0)
        assert profiler.pairs() == [
            (0x30, 0x40, 900.0, 1),
            (0x10, 0x20, 150.0, 2),
        ]


# ----------------------------------------------------------------------
# One schema: every rule names the field it rejects
# ----------------------------------------------------------------------

REPO = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")


def _repo_json(*parts):
    with open(os.path.join(REPO, *parts), encoding="utf-8") as fh:
        return json.load(fh)


def _jsonl(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


def _clean_run_log(tmp_path):
    path = tmp_path / "clean-run.jsonl"
    with SpanTracer(path, manifest=build_manifest(config={})) as tr:
        with tr.span("s"):
            tr.counter("c", {"a": 1})
        tr.event("e")
    return _jsonl(path)


def _clean_e2e_report(_):
    """A report in the shape ``benchmarks/e2e/run.py --out`` writes (CI
    lints a real smoke report)."""
    return {
        "config": {"seed": 42, "repeat": 1, "seconds": None, "smoke": True,
                   "trace": None, "python": "3.11.7", "cpus": 2},
        "workloads": {"figure5_cold": {
            "metrics": {
                "error_rate": {"value": 0.0, "unit": "fraction"},
                "sim_records_per_s": {"value": 2.0e5, "unit": "records/s"},
            },
            "samples": {"setup_s": [0.1], "sim_records_per_s": [2.0e5]},
            "artifact_sha256": "d0180f91", "repetitions": 1,
            "attempted": 1, "failed": 0, "errors": [],
        }},
    }


def _e2e_workload(doc):
    return doc["workloads"]["figure5_cold"]


#: Clean artifact per kind, and the file name it is linted under.
CLEAN = {
    "run_log": (_clean_run_log, "run.jsonl"),
    "sampler": (lambda _: _repo_json(
        "results", "figure5_sampled.manifest.json")["sampler"], None),
    "manifest": (lambda _: _repo_json(
        "results", "figure5_sampled.manifest.json"),
        "figure5_sampled.manifest.json"),
    # Named like any result: the kind comes from the top-level keys.
    "e2e": (_clean_e2e_report, "e2e.json"),
}


def _record(records, rtype):
    return next(r for r in records if r["type"] == rtype)


def _estimate(block):
    return next(iter(next(iter(block["estimates"].values())).values()))


#: (id, artifact, corruption, text naming the rejected field).
LINT_RULES = [
    ("span-dur", "run_log",
     lambda d: _record(d, "span").update(dur=9.0), "dur != t1 - t0"),
    ("span-t0", "run_log", lambda d: _record(d, "span").update(t0=-1.0),
     "t0 is not a non-negative number"),
    ("counter-t", "run_log", lambda d: _record(d, "counter").pop("t"),
     "missing t key"),
    ("counter-attrs", "run_log",
     lambda d: _record(d, "counter").update(attrs=[]),
     "attrs is not an object"),
    ("event-t", "run_log", lambda d: _record(d, "event").update(t="x"),
     "t is not a non-negative number"),
    ("sampler-point", "sampler",
     lambda d: _estimate(d).update(point=_estimate(d)["high"] + 1),
     "point outside its own interval"),
    ("sampler-std-error", "sampler",
     lambda d: _estimate(d).update(std_error=-0.5),
     "std_error is not a non-negative number"),
    ("sampler-params", "sampler", lambda d: d["params"].pop("rate"),
     "missing params.rate key"),
    ("huge-speedup", "sampler",
     lambda d: d.update(speedup=dict(_estimate(d), low=1e12)),
     "speedup: point outside its own interval"),
    ("e2e-config", "e2e", lambda d: d["config"].pop("seed"),
     "missing config.seed key"),
    ("e2e-metric", "e2e",
     lambda d: _e2e_workload(d)["metrics"]["sim_records_per_s"].update(
         value=float("inf")),
     "['sim_records_per_s'].value is not a finite number"),
    ("e2e-samples", "e2e",
     lambda d: _e2e_workload(d)["samples"]["setup_s"].append(None),
     "['setup_s'] is not a list of finite numbers"),
    ("e2e-failed", "e2e", lambda d: _e2e_workload(d).update(failed=2),
     "more runs failed than were attempted"),
] + [
    (f"manifest-{key}", "manifest", lambda d, key=key: d.pop(key),
     f"missing {key} key")
    for key in ("format", "version", "config_hash", "package_version",
                "python_version", "cpu_count", "trace_spec_keys",
                "wall_seconds")
]


def _lint_artifact(tmp_path, artifact, doc):
    name = CLEAN[artifact][1]
    if name is None:
        return lint(doc, kind=artifact)
    path = tmp_path / name
    if name.endswith(".jsonl"):
        path.write_text("".join(json.dumps(rec) + "\n" for rec in doc))
    else:
        path.write_text(json.dumps(doc))
    return lint(path)


@pytest.mark.parametrize(
    "artifact, corrupt, field",
    [rule[1:] for rule in LINT_RULES],
    ids=[rule[0] for rule in LINT_RULES],
)
def test_lint_names_the_rejected_field(tmp_path, artifact, corrupt, field):
    doc = CLEAN[artifact][0](tmp_path)
    assert _lint_artifact(tmp_path, artifact, doc) == []
    corrupt(doc)
    issues = _lint_artifact(tmp_path, artifact, doc)
    assert any(field in issue for issue in issues), issues


def test_lint_unreadable_path(tmp_path):
    assert "unreadable manifest" in lint(
        tmp_path / "absent.json", kind="manifest"
    )[0]


def test_lint_cli_exit_status(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    artifacts = sorted(glob.glob(os.path.join(REPO, "results", "*.json")))

    def cli(*paths):
        return subprocess.run(
            [sys.executable, "-m", "repro.obs", "lint", *paths],
            env=env, cwd=REPO, capture_output=True, text=True,
        )

    clean = cli(*artifacts)
    assert clean.returncode == 0, clean.stdout
    manifest = _repo_json("results", "figure5_sampled.manifest.json")
    del manifest["config_hash"]
    broken = tmp_path / "figure5_sampled.manifest.json"
    broken.write_text(json.dumps(manifest))
    result = cli(artifacts[0], str(broken))
    assert result.returncode == 1
    assert result.stdout.splitlines() == [
        f"{broken}: missing config_hash key"
    ]
