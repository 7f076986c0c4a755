"""Tests for the generic cache bookkeeping (geometry, LRU sets)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory.cache import CacheGeometry
from repro.memory.l1 import L1Cache


class TestCacheGeometry:
    def test_basic_derived_values(self):
        geom = CacheGeometry(size_bytes=32 * 1024, assoc=4, line_size=32)
        assert geom.n_sets == 256

    def test_line_addr_alignment(self):
        geom = CacheGeometry(size_bytes=1024, assoc=2, line_size=32)
        assert geom.line_addr(0x1234) == 0x1220
        assert geom.line_addr(0x1220) == 0x1220

    def test_set_index_wraps(self):
        geom = CacheGeometry(size_bytes=1024, assoc=2, line_size=32)
        assert geom.set_index(0) == geom.set_index(
            geom.n_sets * geom.line_size
        )

    def test_lines_touched_within_one_line(self):
        geom = CacheGeometry(size_bytes=1024, assoc=2, line_size=32)
        assert list(geom.lines_touched(0x100, 4)) == [0x100]

    def test_lines_touched_straddles(self):
        geom = CacheGeometry(size_bytes=1024, assoc=2, line_size=32)
        assert list(geom.lines_touched(0x11E, 8)) == [0x100, 0x120]

    def test_lines_touched_zero_size(self):
        geom = CacheGeometry(size_bytes=1024, assoc=2, line_size=32)
        assert list(geom.lines_touched(0x100, 0)) == [0x100]

    def test_rejects_non_pow2_line(self):
        with pytest.raises(ValueError):
            CacheGeometry(size_bytes=1024, assoc=2, line_size=33)

    def test_rejects_non_pow2_sets(self):
        with pytest.raises(ValueError):
            CacheGeometry(size_bytes=96, assoc=1, line_size=32)

    def test_rejects_misaligned_size(self):
        with pytest.raises(ValueError):
            CacheGeometry(size_bytes=1000, assoc=3, line_size=32)

    @given(
        addr=st.integers(min_value=0, max_value=2**32),
        size=st.integers(min_value=1, max_value=256),
    )
    def test_lines_touched_covers_access(self, addr, size):
        geom = CacheGeometry(size_bytes=4096, assoc=4, line_size=64)
        lines = list(geom.lines_touched(addr, size))
        assert lines[0] <= addr
        assert lines[-1] + geom.line_size >= addr + size
        # Consecutive, line-aligned, no duplicates.
        for a, b in zip(lines, lines[1:]):
            assert b - a == geom.line_size
        assert all(l % geom.line_size == 0 for l in lines)


def _l1(assoc):
    """An L1 of exactly one ``assoc``-way set of 32-byte lines."""
    return L1Cache(
        CacheGeometry(size_bytes=32 * assoc, assoc=assoc, line_size=32)
    )


class TestLRUSet:
    """True-LRU replacement of an L1 set: ``L1Cache.fill`` inserts and
    evicts, ``access`` refreshes the order."""

    def test_victim_is_lru(self):
        l1 = _l1(assoc=2)
        l1.fill(0x20, spec=False)
        l1.fill(0x40, spec=False)
        assert l1.access(0x20)  # touch 0x20 -> 0x40 becomes LRU
        assert l1.fill(0x60, spec=False).tag == 0x40

    def test_replace_same_tag_ok_when_full(self):
        l1 = _l1(assoc=1)
        l1.fill(0x20, spec=False)
        assert l1.fill(0x20, spec=True) is None
        assert l1.resident == {0x20}
        assert l1.lookup(0x20).spec

    def test_remove(self):
        l1 = _l1(assoc=2)
        l1.fill(0x20, spec=False)
        line = l1.lookup(0x20)
        cset = l1._sets[0]
        assert cset.remove(0x20) is line
        assert cset.remove(0x20) is None
        assert cset._order == [] and cset._by_tag == {}

    @given(st.lists(st.integers(min_value=0, max_value=9), max_size=60))
    @settings(max_examples=50)
    def test_lru_order_matches_reference(self, refs):
        """A 4-way L1 set behaves exactly like an ideal LRU of capacity
        4: the same hits, the same victims, the same order."""
        l1 = _l1(assoc=4)
        reference = []  # LRU first
        for i in refs:
            tag = 32 * i
            if l1.access(tag):
                assert tag in reference
                reference.remove(tag)
                reference.append(tag)
                continue
            assert tag not in reference
            evicted = l1.fill(tag, spec=False)
            if len(reference) == 4:
                assert evicted.tag == reference.pop(0)
            else:
                assert evicted is None
            reference.append(tag)
        order = l1._sets[0]._order if reference else []
        assert order == reference
