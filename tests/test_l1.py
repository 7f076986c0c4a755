"""Tests for the write-through L1 with speculative-line tracking."""

from repro.core.profiling import ExposedLoadTable
from repro.memory.cache import CacheGeometry
from repro.memory.l1 import L1Cache
from repro.sim import ExecutionMode
from repro.trace.events import Rec

from conftest import (
    PC,
    check_cache_structures,
    load_pass,
    one_txn_workload,
    region_of,
    run_compiled_and_interpreted,
)


def make_l1(size=1024, assoc=2, line=32):
    return L1Cache(CacheGeometry(size_bytes=size, assoc=assoc,
                                 line_size=line))


class TestL1Basics:
    def test_miss_then_hit(self):
        l1 = make_l1()
        assert not l1.access(0x100)
        l1.fill(0x100, spec=False)
        assert l1.access(0x100)
        assert l1.hits == 1 and l1.misses == 1

    def test_fill_evicts_lru(self):
        l1 = make_l1(size=64, assoc=2)  # single set
        l1.fill(0x000, spec=False)
        l1.fill(0x020, spec=False)
        evicted = l1.fill(0x040, spec=False)
        assert evicted.tag == 0x000

    def test_refill_merges_spec_flag(self):
        l1 = make_l1()
        l1.fill(0x100, spec=False)
        l1.fill(0x100, spec=True)
        line = l1.lookup(0x100)
        assert line.spec

    def test_invalidate(self):
        l1 = make_l1()
        l1.fill(0x100, spec=False)
        assert l1.invalidate(0x100)
        assert not l1.access(0x100)


class TestSpeculativeMarks:
    def test_mark_spec_and_notified(self):
        l1 = make_l1()
        l1.fill(0x100, spec=True)
        assert not l1.is_notified(0x100)
        l1.mark_spec(0x100, notified=True)
        assert l1.is_notified(0x100)

    def test_flash_invalidate_drops_only_spec_lines(self):
        l1 = make_l1()
        l1.fill(0x100, spec=True)
        l1.fill(0x200, spec=False)
        l1.fill(0x300, spec=True)
        dropped = l1.flash_invalidate_spec()
        assert dropped == 2
        assert not l1.access(0x100)
        assert l1.access(0x200)
        assert l1.spec_invalidations == 2

    def test_clear_spec_marks_keeps_lines(self):
        l1 = make_l1()
        l1.fill(0x100, spec=True)
        l1.mark_spec(0x100, notified=True)
        l1.clear_spec_marks()
        assert l1.access(0x100)  # line stays resident
        assert not l1.is_notified(0x100)
        assert l1.spec_lines() == []

    def test_spec_lines_listing(self):
        l1 = make_l1()
        l1.fill(0x100, spec=True)
        l1.fill(0x200, spec=False)
        assert [l.tag for l in l1.spec_lines()] == [0x100]

    def test_mark_spec_on_absent_line_is_noop(self):
        l1 = make_l1()
        l1.mark_spec(0x500, notified=True)
        assert not l1.is_notified(0x500)


class TestLoadRuns:
    """Runs of single-line loads through the chained compiled dispatch
    stay byte-identical to the interpreted path, and the L1 tag mirrors
    stay exact.  The first pass misses or notifies the L2; later passes
    hit resident, already-notified lines."""

    BASE = 0x5100_0000

    def _workload(self):
        e0 = (
            load_pass(self.BASE, 12)
            + [(Rec.COMPUTE, 20)]
            + load_pass(self.BASE, 12)
        )
        return one_txn_workload([region_of(e0)])

    def test_single_epoch_load_runs_match_interpreted(self):
        comp, interp, machine = run_compiled_and_interpreted(
            self._workload()
        )
        assert comp.compiled_fastpath_loads == 24
        assert comp == interp
        assert comp.total_cycles == interp.total_cycles
        check_cache_structures(machine)

    def test_speculative_epoch_load_runs_match_interpreted(self):
        base = self.BASE + 0x10000
        epochs = []
        for e in range(3):
            lines = base + 0x1000 * e
            epochs.append(
                load_pass(lines, 10)
                + [(Rec.COMPUTE, 30)]
                + load_pass(lines, 10)
                + [(Rec.COMPUTE, 10)]
                + load_pass(lines, 10)
            )
        comp, interp, machine = run_compiled_and_interpreted(
            one_txn_workload([region_of(*epochs)])
        )
        assert comp.compiled_fastpath_loads > 0
        assert comp == interp
        assert comp.total_cycles == interp.total_cycles
        check_cache_structures(machine)

    def test_fastpath_counter_is_telemetry_only(self):
        comp, interp, _ = run_compiled_and_interpreted(self._workload())
        # The counters differ (only the compiled path fills them) but
        # equality holds: they are compare=False fields.
        assert comp.compiled_fastpath_loads != interp.compiled_fastpath_loads
        assert comp == interp


class TestLoadRunSquash:
    """A violation squashes an epoch in the middle of its load runs; the
    rewind flash-invalidates its speculative L1 lines exactly as the
    interpreted path does."""

    A = 0x5300_0000
    P = 0x5310_0000

    def _workload(self):
        # e0 stores the shared line after a long compute; e1 loads it
        # speculatively first, then cycles over private lines until the
        # store squashes it.
        e0 = [(Rec.COMPUTE, 900), (Rec.STORE, self.A, 4, PC)]
        e1 = [(Rec.LOAD, self.A, 4, PC + 16)]
        for rep in range(6):
            e1 += load_pass(self.P, 10, pc=PC + 0x100 * rep)
            e1 += [(Rec.COMPUTE, 20)]
        return one_txn_workload([region_of(e0, e1)])

    def test_squash_no_subthread_mode(self):
        comp, interp, machine = run_compiled_and_interpreted(
            self._workload(), ExecutionMode.NO_SUBTHREAD
        )
        assert comp.primary_violations >= 1
        assert comp == interp
        assert comp.total_cycles == interp.total_cycles
        check_cache_structures(machine)

    def test_squash_with_subthreads(self):
        comp, interp, machine = run_compiled_and_interpreted(
            self._workload()
        )
        assert comp.primary_violations >= 1
        assert comp == interp
        assert comp.total_cycles == interp.total_cycles
        check_cache_structures(machine)


class TestExposedLoadTableNonPow2:
    """ExposedLoadTable's divide/modulo fallback for non-pow2 lines."""

    def test_fallback_indexing_matches_reference(self):
        table = ExposedLoadTable(entries=64, line_size=24)
        assert table._line_shift is None
        for addr in (0, 24, 48, 24 * 63, 24 * 64, 24 * 65, 7000):
            assert table._index(addr) == (addr // 24) % 64

    def test_pow2_shift_path_equals_fallback_arithmetic(self):
        table = ExposedLoadTable(entries=64, line_size=32)
        assert table._line_shift is not None
        for addr in (0, 32, 4096, 32 * 64, 12345 * 32):
            assert table._index(addr) == (addr // 32) % 64

    def test_update_lookup_roundtrip_and_aliasing(self):
        table = ExposedLoadTable(entries=16, line_size=24)
        a = 24 * 5
        alias = a + 24 * 16  # same index, different tag
        table.update(a, PC)
        assert table.lookup(a) == PC
        table.update(alias, PC + 4)
        assert table.lookup(alias) == PC + 4
        assert table.lookup(a) is None  # evicted by the alias
        assert table.tag_mismatches == 1
