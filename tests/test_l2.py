"""Tests for the speculative L2: versioning, violations, commit, squash."""

import pytest

from repro.memory.cache import CacheGeometry
from repro.memory.l2 import COMMITTED, L2Entry, L2Set, SpeculativeL2
from repro.sim import ExecutionMode
from repro.trace.events import Rec

from conftest import (
    PC,
    DictDirectory,
    check_cache_structures,
    load_pass,
    one_txn_workload,
    region_of,
    run_compiled_and_interpreted,
    store_pass,
)

A = 0x1000  # a line-aligned address
B = 0x2000


def loaded_owners(l2, addr, ctx):
    """Owners of the versions of ``addr``'s line carrying ``ctx``'s
    speculative-load bit: the versions its exposed loads read."""
    return [e.owner for e in l2.versions_of_line(addr)
            if e.spec_loaded.get(ctx)]


def make_l2(directory, assoc=4, victim=8, line_gran=True, sets_bytes=None):
    geom = CacheGeometry(
        size_bytes=sets_bytes or 32 * 1024, assoc=assoc, line_size=32
    )
    return SpeculativeL2(
        geom, directory, victim_entries=victim,
        line_granularity_loads=line_gran,
    )


class TestLoads:
    def test_cold_load_misses_and_fills_committed(self, directory):
        l2 = make_l2(directory)
        res = l2.load(A, 4, order=0, ctx=None, exposed=False)
        assert not res.hit
        assert res.memory_accesses == 1
        assert [e.owner for e in l2.versions_of_line(A)] == [COMMITTED]

    def test_second_load_hits(self, directory):
        l2 = make_l2(directory)
        l2.load(A, 4, order=0, ctx=None, exposed=False)
        res = l2.load(A, 4, order=0, ctx=None, exposed=False)
        assert res.hit

    def test_exposed_load_sets_spec_bit(self, directory):
        l2 = make_l2(directory)
        ctx = directory.bind(7, order=3, subidx=0)
        l2.load(A, 4, order=3, ctx=ctx, exposed=True)
        assert loaded_owners(l2, A, ctx) == [COMMITTED]

    def test_unexposed_load_sets_no_bit(self, directory):
        l2 = make_l2(directory)
        ctx = directory.bind(7, order=3, subidx=0)
        l2.load(A, 4, order=3, ctx=ctx, exposed=False)
        assert loaded_owners(l2, A, ctx) == []

    def test_load_reads_newest_version_not_after_reader(self, directory):
        l2 = make_l2(directory)
        c1 = directory.bind(1, order=1)
        c3 = directory.bind(3, order=3)
        l2.load(A, 4, order=0, ctx=None, exposed=False)  # committed copy
        l2.store(A, 4, order=1, ctx=c1)   # version owned by epoch 1
        l2.store(A, 4, order=3, ctx=c3)   # version owned by epoch 3
        # Epoch 2 must read epoch 1's version (newest <= 2).
        c2 = directory.bind(2, order=2)
        l2.load(A, 4, order=2, ctx=c2, exposed=True)
        assert loaded_owners(l2, A, c2) == [1]
        # Epoch 4 reads epoch 3's version.
        c4 = directory.bind(4, order=4)
        l2.load(A, 4, order=4, ctx=c4, exposed=True)
        assert loaded_owners(l2, A, c4) == [3]


class TestStoresAndViolations:
    def test_store_creates_version_per_epoch(self, directory):
        l2 = make_l2(directory)
        c1 = directory.bind(1, order=1)
        c2 = directory.bind(2, order=2)
        l2.store(A, 4, order=1, ctx=c1)
        l2.store(A, 4, order=2, ctx=c2)
        owners = {e.owner for e in l2.versions_of_line(A)}
        assert owners == {COMMITTED, 1, 2}

    def test_store_violates_later_loader_of_older_version(self, directory):
        l2 = make_l2(directory)
        c2 = directory.bind(2, order=2, subidx=1)
        l2.load(A, 4, order=2, ctx=c2, exposed=True)  # reads committed
        res = l2.store(A, 4, order=1, ctx=directory.bind(1, order=1))
        assert len(res.violations) == 1
        v = res.violations[0]
        assert v.victim_order == 2
        assert v.subthread_idx == 1
        assert v.load_ctx == c2

    def test_store_does_not_violate_earlier_loader(self, directory):
        l2 = make_l2(directory)
        c1 = directory.bind(1, order=1)
        l2.load(A, 4, order=1, ctx=c1, exposed=True)
        res = l2.store(A, 4, order=2, ctx=directory.bind(2, order=2))
        assert res.violations == []

    def test_store_does_not_violate_own_epoch(self, directory):
        l2 = make_l2(directory)
        c1 = directory.bind(1, order=1)
        l2.load(A, 4, order=1, ctx=c1, exposed=True)
        res = l2.store(A, 4, order=1, ctx=c1)
        assert res.violations == []

    def test_loader_of_newer_version_is_safe(self, directory):
        """If the victim read a version newer than the store, no violation."""
        l2 = make_l2(directory)
        c2 = directory.bind(2, order=2)
        c3 = directory.bind(3, order=3)
        l2.store(A, 4, order=2, ctx=c2)         # epoch 2's version
        l2.load(A, 4, order=3, ctx=c3, exposed=True)  # reads v2
        res = l2.store(A, 4, order=1, ctx=directory.bind(1, order=1))
        assert res.violations == []  # epoch 3 read v2 which is newer than v1

    def test_earliest_subthread_is_rewind_point(self, directory):
        l2 = make_l2(directory)
        c_early = directory.bind(10, order=5, subidx=1)
        c_late = directory.bind(11, order=5, subidx=4)
        l2.load(A, 4, order=5, ctx=c_late, exposed=True)
        l2.load(A, 4, order=5, ctx=c_early, exposed=True)
        res = l2.store(A, 4, order=2, ctx=directory.bind(2, order=2))
        assert len(res.violations) == 1
        assert res.violations[0].subthread_idx == 1

    def test_one_violation_per_victim_epoch(self, directory):
        l2 = make_l2(directory)
        # Two contexts of the same epoch both loaded the line.
        ca = directory.bind(20, order=7, subidx=0)
        cb = directory.bind(21, order=7, subidx=2)
        l2.load(A, 4, order=7, ctx=ca, exposed=True)
        l2.load(A, 4, order=7, ctx=cb, exposed=True)
        res = l2.store(A, 4, order=1, ctx=directory.bind(1, order=1))
        assert len(res.violations) == 1

    def test_multiple_victims_sorted_by_order(self, directory):
        l2 = make_l2(directory)
        for order in (4, 2, 3):
            ctx = directory.bind(30 + order, order=order)
            l2.load(A, 4, order=order, ctx=ctx, exposed=True)
        res = l2.store(A, 4, order=1, ctx=directory.bind(1, order=1))
        assert [v.victim_order for v in res.violations] == [2, 3, 4]

    def test_nonspeculative_store_also_violates(self, directory):
        l2 = make_l2(directory)
        c2 = directory.bind(2, order=2)
        l2.load(A, 4, order=2, ctx=c2, exposed=True)
        res = l2.store(A, 4, order=1, ctx=None)
        assert len(res.violations) == 1
        assert res.violations[0].store_ctx is None

    def test_word_granularity_avoids_false_sharing(self, directory):
        l2 = make_l2(directory, line_gran=False)
        c2 = directory.bind(2, order=2)
        l2.load(A, 4, order=2, ctx=c2, exposed=True)       # word 0
        res = l2.store(A + 8, 4, order=1,
                       ctx=directory.bind(1, order=1))      # word 2
        assert res.violations == []

    def test_line_granularity_reports_false_sharing(self, directory):
        l2 = make_l2(directory, line_gran=True)
        c2 = directory.bind(2, order=2)
        l2.load(A, 4, order=2, ctx=c2, exposed=True)
        res = l2.store(A + 8, 4, order=1,
                       ctx=directory.bind(1, order=1))
        assert len(res.violations) == 1


class TestCommitAndSquash:
    def test_commit_merges_version_and_drops_old_committed(self, directory):
        l2 = make_l2(directory)
        c1 = directory.bind(1, order=1)
        l2.load(A, 4, order=1, ctx=c1, exposed=True)  # brings committed in
        l2.store(A, 4, order=1, ctx=c1)
        assert len(l2.versions_of_line(A)) == 2
        l2.commit_epoch(1, [c1])
        versions = l2.versions_of_line(A)
        assert len(versions) == 1
        assert versions[0].owner == COMMITTED
        assert versions[0].dirty
        assert not versions[0].spec_loaded and not versions[0].spec_mod

    def test_commit_clears_load_bits_on_lines_not_written(self, directory):
        l2 = make_l2(directory)
        c1 = directory.bind(1, order=1)
        l2.load(B, 4, order=1, ctx=c1, exposed=True)
        l2.commit_epoch(1, [c1])
        entry = l2.versions_of_line(B)[0]
        assert c1 not in entry.spec_loaded

    def test_squash_drops_version_and_bits(self, directory):
        l2 = make_l2(directory)
        c1 = directory.bind(1, order=1)
        l2.load(A, 4, order=1, ctx=c1, exposed=True)
        l2.store(A, 4, order=1, ctx=c1)
        l2.squash_ctxs(1, [c1])
        versions = l2.versions_of_line(A)
        assert len(versions) == 1
        assert versions[0].owner == COMMITTED
        assert c1 not in versions[0].spec_loaded

    def test_partial_squash_keeps_earlier_subthread_words(self, directory):
        l2 = make_l2(directory)
        c_a = directory.bind(40, order=3, subidx=0)
        c_b = directory.bind(41, order=3, subidx=1)
        l2.store(A, 4, order=3, ctx=c_a)
        l2.store(A + 8, 4, order=3, ctx=c_b)
        l2.squash_ctxs(3, [c_b])
        version = [e for e in l2.versions_of_line(A) if e.owner == 3]
        assert len(version) == 1
        assert c_a in version[0].spec_mod
        assert c_b not in version[0].spec_mod

    def test_squash_after_commit_is_harmless(self, directory):
        l2 = make_l2(directory)
        c1 = directory.bind(1, order=1)
        l2.store(A, 4, order=1, ctx=c1)
        l2.commit_epoch(1, [c1])
        l2.squash_ctxs(1, [c1])  # should not drop the committed line
        assert len(l2.versions_of_line(A)) == 1


class TestEvictionAndVictimCache:
    def one_set_l2(self, directory, assoc=2, victim=2):
        # line 32, 1 set -> every line maps to the same set.
        geom = CacheGeometry(size_bytes=assoc * 32, assoc=assoc,
                             line_size=32)
        return SpeculativeL2(geom, directory, victim_entries=victim)

    def test_committed_eviction_reports_inclusion_invalidate(self,
                                                             directory):
        l2 = self.one_set_l2(directory)
        l2.load(0x000, 4, order=0, ctx=None, exposed=False)
        l2.load(0x020, 4, order=0, ctx=None, exposed=False)
        res = l2.load(0x040, 4, order=0, ctx=None, exposed=False)
        assert 0x000 in res.invalidated_lines

    def test_speculative_eviction_spills_to_victim_cache(self, directory):
        l2 = self.one_set_l2(directory)
        c1 = directory.bind(1, order=1)
        l2.store(0x000, 4, order=1, ctx=c1)  # spec version + committed
        l2.load(0x020, 4, order=0, ctx=None, exposed=False)
        l2.load(0x040, 4, order=0, ctx=None, exposed=False)
        assert l2.victim_spills >= 1
        # The speculative version is still findable (in the victim cache).
        owners = {e.owner for e in l2.versions_of_line(0x000)}
        assert 1 in owners

    def test_victim_overflow_requests_squash(self, directory):
        l2 = self.one_set_l2(directory, assoc=2, victim=1)
        orders = []
        for i, addr in enumerate((0x000, 0x020, 0x040, 0x060)):
            ctx = directory.bind(100 + i, order=i + 1)
            res = l2.store(addr, 4, order=i + 1, ctx=ctx)
            orders.extend(res.overflow_squash)
        assert orders, "overflow must request epoch squashes"
        assert l2.overflow_squashes >= 1

    def test_victim_hit_promotes_back_to_set(self, directory):
        l2 = self.one_set_l2(directory, assoc=2, victim=4)
        c1 = directory.bind(1, order=1)
        l2.store(0x000, 4, order=1, ctx=c1)
        l2.load(0x020, 4, order=0, ctx=None, exposed=False)
        l2.load(0x040, 4, order=0, ctx=None, exposed=False)
        assert len(l2.victim.entries()) >= 1
        # Re-access the spilled line: should hit (still on chip).
        res = l2.load(0x000, 4, order=1, ctx=c1, exposed=False)
        assert res.hit
        l2.check_invariants()


class TestInvariants:
    def test_check_invariants_on_mixed_traffic(self, directory):
        l2 = make_l2(directory)
        for i in range(20):
            order = (i % 4) + 1
            ctx = directory.bind(200 + order, order=order)
            l2.store(0x1000 + 32 * i, 4, order=order, ctx=ctx)
            l2.load(0x1000 + 32 * ((i * 7) % 20), 4, order=order,
                    ctx=ctx, exposed=True)
        l2.check_invariants()

    def test_word_mask_clamps_to_line(self, directory):
        l2 = make_l2(directory)
        mask = l2.word_mask(A + 28, 16)  # extends past the 32B line
        assert mask == 0b10000000  # only the last word of the line


class TestVersionIsolationProperty:
    """DESIGN.md invariant 4: an epoch never reads a version written by a
    logically-later epoch, under arbitrary interleavings."""

    def test_random_traffic_version_isolation(self, directory):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @given(
            ops=st.lists(
                st.tuples(
                    st.sampled_from(["load", "store"]),
                    st.integers(min_value=1, max_value=4),   # epoch order
                    st.integers(min_value=0, max_value=5),   # line index
                ),
                max_size=80,
            )
        )
        @settings(max_examples=50, deadline=None)
        def run(ops):
            from conftest import DictDirectory

            d = DictDirectory()
            l2 = make_l2(d)
            for order in range(1, 5):
                d.bind(order, order=order)
            for op, order, line_idx in ops:
                addr = 0x1000 + 32 * line_idx
                if op == "load":
                    l2.load(addr, 4, order=order, ctx=order, exposed=True)
                    read = loaded_owners(l2, addr, order)
                    assert read and max(read) <= order, (
                        "read a logically-later version"
                    )
                else:
                    l2.store(addr, 4, order=order, ctx=order)
                l2.check_invariants()

        run()


class TestSquashPreservesForeignLoadBits:
    """Regression: a reader's exposed-load bits recorded on a
    predecessor's speculative version must survive that version's
    squash, or the reader's future violations are silently missed
    (found by the cycle-level invariant checker on Figure 6 configs)."""

    def test_bits_rehomed_to_committed_version_on_squash(self, directory):
        l2 = make_l2(directory, line_gran=True)
        writer = directory.bind(1, order=10)
        reader = directory.bind(2, order=20)
        l2.store(A, 4, order=10, ctx=writer)            # spec version, 10
        l2.load(A, 4, order=20, ctx=reader, exposed=True)
        assert loaded_owners(l2, A, reader) == [10]     # forwarded read
        l2.squash_ctxs(10, [writer])
        committed = [e for e in l2.versions_of_line(A)
                     if e.owner == COMMITTED]
        assert len(committed) == 1
        assert committed[0].spec_loaded.get(reader)     # bit survived
        # The re-executed (earlier-order) store must still violate 20.
        res = l2.store(A, 4, order=10, ctx=writer)
        assert [v.victim_order for v in res.violations] == [20]

    def test_doomed_entry_recycled_when_no_committed_copy(self, directory):
        # assoc=1, one set: installing the speculative version evicts the
        # write-allocated committed copy, so the squash finds no
        # committed version to merge into and must recycle the entry.
        geom = CacheGeometry(size_bytes=32, assoc=1, line_size=32)
        l2 = SpeculativeL2(geom, directory, victim_entries=4)
        writer = directory.bind(1, order=10)
        reader = directory.bind(2, order=20)
        l2.store(A, 4, order=10, ctx=writer)
        l2.load(A, 4, order=20, ctx=reader, exposed=True)
        l2.squash_ctxs(10, [writer])
        versions = l2.versions_of_line(A)
        assert [e.owner for e in versions] == [COMMITTED]
        assert not versions[0].dirty
        assert versions[0].spec_loaded.get(reader)
        res = l2.store(A, 4, order=5, ctx=None)
        assert [v.victim_order for v in res.violations] == [20]
        l2.check_invariants()

    def test_commit_merges_stale_committed_versions_load_bits(
            self, directory):
        # Reader 20 loads word 0 of the committed copy; epoch 10 stores
        # word 1 (no overlap, no violation) and commits.  The stale
        # committed version is dropped but the reader's word-0 bit must
        # move to the new committed version.
        l2 = make_l2(directory, line_gran=False)
        writer = directory.bind(1, order=10)
        reader = directory.bind(2, order=20)
        l2.load(A, 4, order=20, ctx=reader, exposed=True)     # word 0
        res = l2.store(A + 4, 4, order=10, ctx=writer)        # word 1
        assert res.violations == []
        l2.commit_epoch(10, [writer])
        committed = [e for e in l2.versions_of_line(A)
                     if e.owner == COMMITTED]
        assert len(committed) == 1
        assert committed[0].spec_loaded.get(reader) == 0b01
        res = l2.store(A, 4, order=15, ctx=None)
        assert [v.victim_order for v in res.violations] == [20]


class TestIdentityBasedRemoval:
    """L2Entry compares by value, so two distinct versions can compare
    equal (two committed copies mid-merge).  Set removal and LRU touch
    must act on the named object, never on its first equal twin."""

    def test_remove_drops_the_named_twin(self):
        cset = L2Set(assoc=4)
        first, second = L2Entry(tag=A), L2Entry(tag=A)
        assert first == second and first is not second
        cset.add(first)
        cset.add(second)
        cset.remove(second)
        assert len(cset) == 1
        assert cset.entries()[0] is first
        with pytest.raises(ValueError):
            cset.remove(second)

    def test_touch_moves_the_named_twin(self):
        cset = L2Set(assoc=4)
        first, second = L2Entry(tag=A), L2Entry(tag=A)
        cset.add(first)
        cset.add(second)
        cset.touch(first)
        assert [id(e) for e in cset.entries()] == [id(second), id(first)]


class TestStoreRuns:
    """Runs of single-line stores through the chained compiled dispatch
    stay byte-identical to the interpreted path, and the L2 line-version
    index stays exact.  The first pass installs each line; later passes
    hit epoch-owned resident versions."""

    BASE = 0x5600_0000

    def _workload(self):
        e0 = (
            store_pass(self.BASE, 12)
            + [(Rec.COMPUTE, 20)]
            + store_pass(self.BASE, 12)
        )
        return one_txn_workload([region_of(e0)])

    def test_single_epoch_store_runs_match_interpreted(self):
        comp, interp, machine = run_compiled_and_interpreted(
            self._workload()
        )
        assert comp.compiled_fastpath_stores == 24
        assert comp == interp
        assert comp.total_cycles == interp.total_cycles
        check_cache_structures(machine)

    def test_speculative_epoch_store_runs_match_interpreted(self):
        # Distinct per-epoch bases: no epoch stores another's lines.
        base = self.BASE + 0x10000
        epochs = []
        for e in range(3):
            lines = base + 0x1000 * e
            epochs.append(
                store_pass(lines, 10)
                + [(Rec.COMPUTE, 30)]
                + store_pass(lines, 10)
                + [(Rec.COMPUTE, 10)]
                + store_pass(lines, 10)
            )
        comp, interp, machine = run_compiled_and_interpreted(
            one_txn_workload([region_of(*epochs)])
        )
        assert comp == interp
        assert comp.total_cycles == interp.total_cycles
        check_cache_structures(machine)

    def test_shared_line_store_runs_match_interpreted(self):
        # Both epochs store the same lines.
        base = self.BASE + 0x20000
        e0 = store_pass(base, 8) + [(Rec.COMPUTE, 10)]
        e1 = [(Rec.COMPUTE, 200)] + store_pass(base, 8)
        comp, interp, machine = run_compiled_and_interpreted(
            one_txn_workload([region_of(e0, e1)])
        )
        assert comp.compiled_fastpath_stores == 16
        assert comp == interp
        check_cache_structures(machine)


class TestStoreRunSquash:
    """A violation squashes an epoch in the middle of its private store
    runs; the rewind drops its L2 versions exactly as the interpreted
    path does."""

    A = 0x5700_0000
    P = 0x5710_0000

    def _workload(self):
        # e0 stores the shared line after a long compute; e1 loads it
        # speculatively first, then cycles over private store runs until
        # the store squashes it.
        e0 = [(Rec.COMPUTE, 900), (Rec.STORE, self.A, 4, PC)]
        e1 = [(Rec.LOAD, self.A, 4, PC + 16)]
        for rep in range(6):
            e1 += store_pass(self.P, 10, pc=PC + 0x100 * rep)
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


class TestVersionIndexUnderVictimPressure:
    """A tiny L2 with a tiny victim cache spills and overflows while the
    compiled fast paths resolve versions through ``_line_versions``; the
    index must track every move and the run must match the interpreted
    path."""

    BASE = 0x5400_0000

    def test_load_runs_spill_and_match_interpreted(self):
        epochs = []
        for e in range(4):
            base = self.BASE + 0x8000 * e
            recs = []
            for rep in range(3):
                recs += load_pass(base, 16, pc=PC + 0x100 * rep)
                recs += [
                    (Rec.STORE, base + 32 * (rep + 1), 4, PC + 0x900 + rep)
                ]
                recs += [(Rec.COMPUTE, 15)]
                recs += load_pass(base, 16, pc=PC + 0x100 * rep + 4)
            epochs.append(recs)
        comp, interp, machine = run_compiled_and_interpreted(
            one_txn_workload([region_of(*epochs)]),
            l2_size=1024, l2_assoc=2, victim_entries=2,
        )
        assert comp.victim_spills > 0
        assert comp == interp
        assert comp.total_cycles == interp.total_cycles
        check_cache_structures(machine)

    def test_store_runs_spill_and_match_interpreted(self):
        base = 0x5720_0000
        epochs = []
        for e in range(4):
            eb = base + 0x8000 * e
            recs = []
            for rep in range(3):
                recs += store_pass(eb, 16, pc=PC + 0x100 * rep)
                recs += [(Rec.COMPUTE, 15)]
                recs += store_pass(eb, 16, pc=PC + 0x100 * rep + 4)
            epochs.append(recs)
        comp, interp, machine = run_compiled_and_interpreted(
            one_txn_workload([region_of(*epochs)]),
            l2_size=256, l2_assoc=2, victim_entries=2,
        )
        assert comp.victim_spills > 0
        assert comp == interp
        assert comp.total_cycles == interp.total_cycles
        check_cache_structures(machine)
