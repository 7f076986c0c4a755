"""Tests for the TLS engine: lifecycle, violations, commit, contexts."""

from repro.core.engine import TLSConfig, TLSEngine
from repro.memory.cache import CacheGeometry
from repro.memory.l2 import SpeculativeL2
from repro.trace.events import EpochTrace, Rec

A = 0x1000
B = 0x2000


def make_engine(n_cpus=4, **tls_kwargs):
    tls = TLSConfig(**tls_kwargs) if tls_kwargs else TLSConfig()
    geom = CacheGeometry(size_bytes=32 * 1024, assoc=4, line_size=32)
    l2 = SpeculativeL2(
        geom, directory=None,
        line_granularity_loads=tls.line_granularity_loads,
    )
    engine = TLSEngine(l2, n_cpus=n_cpus, config=tls)
    l2.directory = engine.directory
    return engine


def dummy_trace(n=5):
    return EpochTrace(epoch_id=0, records=[(Rec.COMPUTE, 100)] * n)


class TestLifecycle:
    def test_first_epoch_is_homefree(self):
        eng = make_engine()
        e0 = eng.start_epoch(dummy_trace(), cpu=0, now=0.0)
        assert not e0.speculative and e0.homefree

    def test_later_epochs_are_speculative(self):
        eng = make_engine()
        eng.start_epoch(dummy_trace(), cpu=0, now=0.0)
        e1 = eng.start_epoch(dummy_trace(), cpu=1, now=0.0)
        assert e1.speculative

    def test_orders_are_monotonic(self):
        eng = make_engine()
        orders = [
            eng.start_epoch(dummy_trace(), cpu=i, now=0.0).order
            for i in range(3)
        ]
        assert orders == sorted(orders)
        assert len(set(orders)) == 3

    def test_commit_in_order_only(self):
        eng = make_engine()
        e0 = eng.start_epoch(dummy_trace(), cpu=0, now=0.0)
        e1 = eng.start_epoch(dummy_trace(), cpu=1, now=0.0)
        eng.finish_epoch(e1, now=10.0)
        assert eng.try_commit() == []  # e0 still running
        eng.finish_epoch(e0, now=20.0)
        committed = eng.try_commit()
        assert committed == [e0, e1]
        assert eng.epochs_committed == 2

    def test_token_passes_to_running_epoch(self):
        eng = make_engine()
        e0 = eng.start_epoch(dummy_trace(), cpu=0, now=0.0)
        e1 = eng.start_epoch(dummy_trace(), cpu=1, now=0.0)
        eng.finish_epoch(e0, now=5.0)
        eng.try_commit()
        assert e1.homefree and not e1.speculative

    def test_homefree_state_committed_on_token(self):
        eng = make_engine()
        e0 = eng.start_epoch(dummy_trace(), cpu=0, now=0.0)
        e1 = eng.start_epoch(dummy_trace(), cpu=1, now=0.0)
        eng.store(e1, A, 4, pc=1)
        eng.finish_epoch(e0, now=5.0)
        eng.try_commit()
        versions = eng.l2.versions_of_line(A)
        assert len(versions) == 1 and versions[0].owner == -1


class TestSubThreadPolicy:
    def test_spacing_gates_checkpoint(self):
        eng = make_engine(subthread_spacing=100, max_subthreads=4)
        eng.start_epoch(dummy_trace(), cpu=0, now=0.0)  # homefree
        e1 = eng.start_epoch(dummy_trace(), cpu=1, now=0.0)
        assert not eng.maybe_start_subthread(e1, now=0.0)
        e1.retire(100)
        assert eng.maybe_start_subthread(e1, now=1.0)
        assert len(e1.subthreads) == 2

    def test_context_limit(self):
        eng = make_engine(subthread_spacing=10, max_subthreads=2)
        eng.start_epoch(dummy_trace(), cpu=0, now=0.0)
        e1 = eng.start_epoch(dummy_trace(), cpu=1, now=0.0)
        e1.retire(10)
        assert eng.maybe_start_subthread(e1, 0.0)
        e1.retire(10)
        assert not eng.maybe_start_subthread(e1, 0.0)
        assert len(e1.subthreads) == 2

    def test_homefree_epoch_never_checkpoints(self):
        eng = make_engine(subthread_spacing=1)
        e0 = eng.start_epoch(dummy_trace(), cpu=0, now=0.0)
        e0.retire(100)
        assert not eng.maybe_start_subthread(e0, 0.0)

    def test_broadcast_fills_later_start_tables(self):
        eng = make_engine(subthread_spacing=10)
        eng.start_epoch(dummy_trace(), cpu=0, now=0.0)
        e1 = eng.start_epoch(dummy_trace(), cpu=1, now=0.0)
        e2 = eng.start_epoch(dummy_trace(), cpu=2, now=0.0)
        # Advance e2 into its own sub-thread 1 first.
        e2.retire(10)
        eng.maybe_start_subthread(e2, 0.0)
        # Then e1 starts sub-thread 1; e2 must record "was at 1".
        e1.retire(10)
        eng.maybe_start_subthread(e1, 0.0)
        assert eng.start_tables[e2.order].restart_point(e1.order, 1) == 1


class TestViolationResolution:
    def setup_pair(self, **tls_kwargs):
        eng = make_engine(subthread_spacing=10, **tls_kwargs)
        e0 = eng.start_epoch(dummy_trace(), cpu=0, now=0.0)
        e1 = eng.start_epoch(dummy_trace(), cpu=1, now=0.0)
        return eng, e0, e1

    def test_primary_violation_rewinds_loader(self):
        eng, e0, e1 = self.setup_pair()
        eng.load(e1, A, 4, pc=0xAA)
        _, rewinds = eng.store(e0, A, 4, pc=0xBB)
        assert len(rewinds) == 1
        assert rewinds[0].epoch is e1
        assert rewinds[0].subthread_idx == 0
        assert e1.violations_suffered == 1

    def test_violation_targets_loading_subthread(self):
        eng, e0, e1 = self.setup_pair()
        e1.retire(10)
        eng.maybe_start_subthread(e1, 0.0)  # sub-thread 1
        eng.load(e1, A, 4, pc=0xAA)         # load in sub-thread 1
        _, rewinds = eng.store(e0, A, 4, pc=0xBB)
        assert rewinds[0].subthread_idx == 1
        # Sub-thread 0's work survives.
        assert len(e1.subthreads) == 2

    def test_covered_load_not_violated(self):
        eng, e0, e1 = self.setup_pair()
        eng.store(e1, A, 4, pc=0x1)  # e1 writes first
        eng.load(e1, A, 4, pc=0x2)   # then reads its own data
        _, rewinds = eng.store(e0, A, 4, pc=0x3)
        assert rewinds == []

    def test_profiler_records_pair(self):
        eng, e0, e1 = self.setup_pair()
        eng.load(e1, A, 4, pc=0xAA)
        eng.store(e0, A, 4, pc=0xBB)
        top = eng.profiler.top(1)
        assert top and top[0].store_pc == 0xBB
        assert top[0].load_pc == 0xAA

    def test_secondary_violation_with_start_tables(self):
        eng = make_engine(subthread_spacing=10, start_tables=True)
        e0 = eng.start_epoch(dummy_trace(), cpu=0, now=0.0)
        e1 = eng.start_epoch(dummy_trace(), cpu=1, now=0.0)
        e2 = eng.start_epoch(dummy_trace(), cpu=2, now=0.0)
        # e2 progresses to sub-thread 1 BEFORE e1's violated load.
        e2.retire(10)
        eng.maybe_start_subthread(e2, 0.0)
        # e1 opens sub-thread 1 (broadcast: e2 records subidx 1), loads A.
        e1.retire(10)
        eng.maybe_start_subthread(e1, 0.0)
        eng.load(e1, A, 4, pc=0xAA)
        _, rewinds = eng.store(e0, A, 4, pc=0xBB)
        by_epoch = {r.epoch: r for r in rewinds}
        assert by_epoch[e1].subthread_idx == 1
        assert by_epoch[e2].subthread_idx == 1  # selective: keeps st 0
        assert by_epoch[e2].secondary

    def test_secondary_violation_without_start_tables(self):
        eng = make_engine(subthread_spacing=10, start_tables=False)
        e0 = eng.start_epoch(dummy_trace(), cpu=0, now=0.0)
        e1 = eng.start_epoch(dummy_trace(), cpu=1, now=0.0)
        e2 = eng.start_epoch(dummy_trace(), cpu=2, now=0.0)
        e2.retire(10)
        eng.maybe_start_subthread(e2, 0.0)
        eng.load(e1, A, 4, pc=0xAA)
        _, rewinds = eng.store(e0, A, 4, pc=0xBB)
        by_epoch = {r.epoch: r for r in rewinds}
        assert by_epoch[e2].subthread_idx == 0  # full restart

    def test_contexts_recycled_after_rewind(self):
        eng = make_engine(subthread_spacing=10, max_subthreads=4)
        eng.start_epoch(dummy_trace(), cpu=0, now=0.0)
        e1 = eng.start_epoch(dummy_trace(), cpu=1, now=0.0)
        for _ in range(3):
            e1.retire(10)
            eng.maybe_start_subthread(e1, 0.0)
        assert len(e1.subthreads) == 4
        eng.force_rewind(e1, 1)
        assert len(e1.subthreads) == 2
        # Freed contexts can be reused.
        e1.retire(10)
        assert eng.maybe_start_subthread(e1, 0.0)
        eng.check_invariants()

    def test_homefree_epoch_cannot_be_violated(self):
        eng = make_engine()
        e0 = eng.start_epoch(dummy_trace(), cpu=0, now=0.0)
        eng.load(e0, A, 4, pc=0x1)
        # A store from a hypothetical serial path with smaller order is
        # impossible; instead assert no bits were set for e0.
        versions = eng.l2.versions_of_line(A)
        assert all(not v.spec_loaded for v in versions)

    def test_finished_epoch_can_be_violated(self):
        eng, e0, e1 = self.setup_pair()
        eng.load(e1, A, 4, pc=0xAA)
        eng.finish_epoch(e1, now=5.0)
        _, rewinds = eng.store(e0, A, 4, pc=0xBB)
        assert rewinds and rewinds[0].epoch is e1
        assert e1.status == "running"


class TestInvariants:
    def test_engine_invariants_after_traffic(self):
        eng = make_engine(subthread_spacing=5)
        epochs = [
            eng.start_epoch(dummy_trace(), cpu=i, now=0.0) for i in range(4)
        ]
        for i, e in enumerate(epochs):
            eng.load(e, A + 0x100 * i, 4, pc=i)
            eng.store(e, B + 0x100 * i, 4, pc=i)
            e.retire(5)
            eng.maybe_start_subthread(e, 0.0)
        eng.check_invariants()
