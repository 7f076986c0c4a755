"""Tests for the sweep service: store, journal, scheduler, daemon.

The acceptance gates mirror the service's promises:

* a figure5 sweep served over the API is byte-identical to the direct
  harness artifact;
* a re-submitted sweep dispatches zero simulations (100% store hits);
* a worker killed with SIGKILL mid-sweep costs a retry, not the sweep;
* the journal is schema-clean and replays to the right recovery state.
"""

import dataclasses
import json
import threading

import pytest

from repro.harness import (
    ExperimentContext,
    JobRunner,
    SimJob,
    TraceSpec,
    run_figure5,
    spec_key,
)
from repro.harness.export import export_json
from repro.harness.parallel import JobFailure
from repro.obs import assert_valid
from repro.service import (
    STORE_VERSION,
    Journal,
    ResultStore,
    RetryPolicy,
    ServiceClient,
    ServiceError,
    SweepScheduler,
    SweepService,
    make_server,
    read_journal,
    replay_sweeps,
    result_key,
    stats_from_doc,
    stats_to_doc,
    validate_spec,
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
        assert store.counters() == {"hits": 1, "misses": 1, "puts": 1}

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
        assert STORE_VERSION == 3
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
        # Even mislabeled as current, the retired fields cannot round-trip.
        entry["version"] = STORE_VERSION
        path.write_text(json.dumps(entry))
        assert store.get_stats("k", config) is None
        assert store.counters()["hits"] == 0
        # The next commit overwrites the stale entry with a readable one.
        store.put_stats("k", config, tiny_stats)
        assert store.get_stats("k", config) == tiny_stats

    def test_scan_counts_entries(self, tmp_path, tiny_stats):
        store = ResultStore(tmp_path)
        config = MachineConfig.for_mode(ExecutionMode.BASELINE)
        store.put_stats("k1", config, tiny_stats)
        store.put_stats("k2", config, tiny_stats)
        scan = store.scan()
        assert scan["entries"] == 2
        assert scan["trace_spec_keys"] == ["k1", "k2"]


class TestRunnerStoreIntegration:
    def test_memo_dedupes_provenance_only_config_diffs(self):
        """Two ``==`` configs with different ``mode_label`` simulate once.

        ``dataclasses.astuple`` used to leak the provenance label into
        the memo key, splitting the cache.
        """
        spec = _tiny_spec()
        config = MachineConfig.for_mode(ExecutionMode.BASELINE)
        renamed = dataclasses.replace(config, mode_label="renamed")
        runner = JobRunner()
        results = runner.run([
            SimJob(config=config, spec=spec),
            SimJob(config=renamed, spec=spec),
        ])
        assert runner.dispatched == 1
        assert results[0] is results[1]

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


class TestJournal:
    def test_append_read_replay(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with Journal(path) as journal:
            journal.append("service", "start", pid=1)
            journal.append("sweep", "accepted", sweep="s1",
                           spec={"experiment": "figure5"})
            journal.append("sweep", "running", sweep="s1")
            journal.append("job", "dispatch", sweep="s1", job="j",
                           attempt=1)
            journal.append("job", "retry", sweep="s1", job="j",
                           attempt=1, crashed=True)
        assert_valid(path)
        state = replay_sweeps(read_journal(path))["s1"]
        assert state["state"] == "interrupted"  # no terminal record
        assert state["spec"] == {"experiment": "figure5"}
        assert state["retries"] == 1

    def test_terminal_sweeps_keep_their_state(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with Journal(path) as journal:
            journal.append("sweep", "accepted", sweep="s1", spec={})
            journal.append("sweep", "done", sweep="s1")
        assert replay_sweeps(read_journal(path))["s1"]["state"] == "done"

    def test_seq_continues_across_reopen(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with Journal(path) as journal:
            journal.append("service", "start")
        with Journal(path) as journal:
            record = journal.append("service", "stop")
        assert record["seq"] == 1
        assert_valid(path)

    def test_lint_rejects_bad_journals(self, tmp_path):
        from repro.obs import RunLogError, lint

        path = tmp_path / "journal.jsonl"
        path.write_text(
            '{"type": "sweep", "event": "warped", "seq": 0, "t": 1.0, '
            '"sweep": "s1"}\n'
            '{"type": "job", "event": "dispatch", "seq": 2, "t": 1.0, '
            '"sweep": "s1", "job": "j", "attempt": 0}\n'
        )
        issues = lint(path)
        assert any("unknown sweep event" in i for i in issues)
        assert any("seq" in i for i in issues)
        assert any("attempt" in i for i in issues)
        with pytest.raises(RunLogError):
            assert_valid(path)

    def test_torn_final_line_skipped(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with Journal(path) as journal:
            journal.append("service", "start")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"type": "sweep", "ev')  # crash mid-append
        records = read_journal(path)
        assert len(records) == 1
        # Reopening after the crash keeps seq strictly increasing.
        with Journal(path) as journal:
            assert journal.append("service", "stop")["seq"] == 1


class TestScheduler:
    def test_plain_run_matches_serial(self, tmp_path):
        spec = _tiny_spec()
        jobs = [
            SimJob(config=MachineConfig.for_mode(mode), spec=spec)
            for mode in (ExecutionMode.TLS_SEQ, ExecutionMode.BASELINE)
        ]
        serial = JobRunner().run(jobs)
        scheduler = SweepScheduler(n_workers=2)
        try:
            scheduler.begin_sweep("s")
            assert scheduler.run_jobs(jobs) == serial
        finally:
            scheduler.shutdown()

    def test_sigkilled_worker_retried_and_sweep_completes(self, tmp_path):
        spec = _tiny_spec()
        jobs = [
            SimJob(config=MachineConfig.for_mode(mode), spec=spec)
            for mode in (ExecutionMode.TLS_SEQ, ExecutionMode.BASELINE,
                         ExecutionMode.NO_SUBTHREAD)
        ]
        serial = JobRunner().run(jobs)
        journal_path = tmp_path / "journal.jsonl"
        with Journal(journal_path) as journal:
            scheduler = SweepScheduler(
                n_workers=2, journal=journal,
                policy=RetryPolicy(backoff_base=0.01),
            )
            try:
                scheduler.begin_sweep("s")
                scheduler.arm_fault(
                    str(tmp_path / "crash.token"), after_dispatches=2
                )
                assert scheduler.run_jobs(jobs) == serial
            finally:
                scheduler.shutdown()
        assert scheduler.worker_crashes >= 1
        assert scheduler.retries >= 1
        assert scheduler.quarantined == []
        events = [r["event"] for r in read_journal(journal_path)
                  if r["type"] == "job"]
        assert "retry" in events

    def test_poison_job_quarantined(self, tmp_path):
        bad = SimJob(
            config=MachineConfig.for_mode(ExecutionMode.BASELINE),
            spec=_tiny_spec(benchmark="no_such_benchmark"),
        )
        journal_path = tmp_path / "journal.jsonl"
        with Journal(journal_path) as journal:
            scheduler = SweepScheduler(
                n_workers=1, journal=journal,
                policy=RetryPolicy(max_attempts=2, backoff_base=0.001),
            )
            try:
                scheduler.begin_sweep("s")
                with pytest.raises(JobFailure) as excinfo:
                    scheduler.run_jobs([bad])
            finally:
                scheduler.shutdown()
        assert "quarantined" in str(excinfo.value)
        assert len(scheduler.quarantined) == 1
        assert scheduler.retries == 1  # max_attempts=2 -> one retry
        events = [r["event"] for r in read_journal(journal_path)
                  if r["type"] == "job"]
        assert events.count("retry") == 1
        assert events.count("quarantine") == 1
        assert_valid(journal_path)


class TestSpecValidation:
    def test_defaults_filled(self):
        spec = validate_spec({"experiment": "figure5"})
        assert spec["transactions"] == 4
        assert spec["seed"] == 42
        assert spec["scale"] == "default"

    @pytest.mark.parametrize("bad", [
        [],
        {"experiment": "nope"},
        {"experiment": "figure5", "scale": "galactic"},
        {"experiment": "figure5", "benchmarks": "new_order"},
        {"experiment": "raw"},
        {"experiment": "figure5", "fault": {"kill_worker_after": "x"}},
    ])
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(ValueError):
            validate_spec(bad)


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    """One live daemon + HTTP server shared by the end-to-end tests."""
    root = tmp_path_factory.mktemp("service-root")
    svc = SweepService(root, n_workers=2,
                       policy=RetryPolicy(backoff_base=0.01))
    httpd = make_server(svc)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    host, port = httpd.server_address[:2]
    client = ServiceClient(f"http://{host}:{port}", timeout=600)
    yield svc, client
    svc.drain()
    httpd.shutdown()
    thread.join(timeout=10)


TINY_FIGURE5 = {
    "experiment": "figure5",
    "transactions": 1,
    "scale": "tiny",
    "benchmarks": ["new_order"],
}


class TestServiceEndToEnd:
    def test_healthz(self, service):
        _, client = service
        doc = client.healthz()
        assert doc["ok"] is True
        assert doc["draining"] is False

    def test_submit_matches_direct_harness_byte_for_byte(
        self, service, tmp_path
    ):
        svc, client = service
        sweep_id = client.submit(TINY_FIGURE5)
        doc = client.wait(sweep_id)
        assert doc["state"] == "done", doc["error"]
        assert doc["counts"]["quarantined"] == []
        served = client.artifact(sweep_id, "figure5.json")
        # The same experiment straight through the harness, no service.
        ctx = ExperimentContext(n_transactions=1,
                                scale=TPCCScale.tiny())
        direct = run_figure5(ctx, benchmarks=["new_order"])
        export_json(direct, tmp_path / "figure5.json")
        assert served == (tmp_path / "figure5.json").read_bytes()

    def test_resubmit_is_all_store_hits(self, service):
        svc, client = service
        first = client.wait(client.submit(TINY_FIGURE5))
        again = client.wait(client.submit(TINY_FIGURE5))
        assert again["state"] == "done"
        assert again["counts"]["dispatched"] == 0
        assert again["counts"]["store_hits"] == again["counts"]["jobs"]
        assert again["counts"]["jobs"] == first["counts"]["jobs"]
        served_first = client.artifact(first["sweep"], "figure5.json")
        served_again = client.artifact(again["sweep"], "figure5.json")
        assert served_first == served_again

    def test_killed_worker_retried_over_api(self, service):
        svc, client = service
        spec = dict(TINY_FIGURE5, seed=43,
                    fault={"kill_worker_after": 2})
        doc = client.wait(client.submit(spec))
        assert doc["state"] == "done", doc["error"]
        assert doc["counts"]["worker_crashes"] >= 1
        assert doc["counts"]["retries"] >= 1
        assert doc["counts"]["quarantined"] == []

    def test_watch_streams_span_records(self, service):
        svc, client = service
        sweep_id = client.submit(TINY_FIGURE5)
        chunks = []
        doc = client.watch(sweep_id, sink=chunks.append)
        assert doc["state"] == "done"
        records = [json.loads(line) for line in
                   "".join(chunks).splitlines()]
        types = {r["type"] for r in records}
        assert "span" in types and "counter" in types
        names = {r.get("name") for r in records}
        assert "experiment.figure5" in names
        assert "service.sweep" in names

    def test_journal_is_schema_clean(self, service):
        svc, client = service
        client.wait(client.submit(TINY_FIGURE5))
        assert_valid(svc.root / "journal.jsonl")

    def test_bad_spec_is_a_400(self, service):
        _, client = service
        with pytest.raises(ServiceError, match="400"):
            client.submit({"experiment": "nope"})

    def test_unknown_sweep_is_a_404(self, service):
        _, client = service
        with pytest.raises(ServiceError, match="404"):
            client.status("sweep-does-not-exist")

    def test_store_endpoint_reports_entries(self, service):
        svc, client = service
        client.wait(client.submit(TINY_FIGURE5))
        scan = client.store()
        assert scan["entries"] >= 5  # five figure5 modes committed


class TestRecovery:
    def test_interrupted_sweeps_surface_after_restart(self, tmp_path):
        root = tmp_path / "root"
        # A daemon that journaled a running sweep and then died.
        with Journal(root / "journal.jsonl") as journal:
            journal.append("service", "start", pid=1)
            journal.append("sweep", "accepted", sweep="s1",
                           spec={"experiment": "figure5"})
            journal.append("sweep", "running", sweep="s1")
        svc = SweepService(root, n_workers=1)
        try:
            record = svc.status("s1")
            assert record.state == "interrupted"
            assert record.spec == {"experiment": "figure5"}
        finally:
            svc.drain()
        assert_valid(root / "journal.jsonl")

    def test_drain_rejects_new_submissions(self, tmp_path):
        svc = SweepService(tmp_path / "root", n_workers=1)
        svc.drain()
        with pytest.raises(RuntimeError, match="draining"):
            svc.submit({"experiment": "figure5"})
