"""Tests for the generic cache bookkeeping (geometry, LRU sets)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory.cache import CacheGeometry, LRUSet


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


class TestLRUSet:
    def test_put_get(self):
        s = LRUSet(assoc=2)
        s.put(1, "a")
        assert s.get(1) == "a"
        assert 1 in s

    def test_victim_is_lru(self):
        s = LRUSet(assoc=2)
        s.put(1, "a")
        s.put(2, "b")
        s.get(1)  # touch 1 -> 2 becomes LRU
        assert s.victim_tag() == 2

    def test_put_full_raises(self):
        s = LRUSet(assoc=1)
        s.put(1, "a")
        with pytest.raises(RuntimeError):
            s.put(2, "b")

    def test_replace_same_tag_ok_when_full(self):
        s = LRUSet(assoc=1)
        s.put(1, "a")
        s.put(1, "b")
        assert s.get(1) == "b"

    def test_remove(self):
        s = LRUSet(assoc=2)
        s.put(1, "a")
        assert s.remove(1) == "a"
        assert s.remove(1) is None
        assert len(s) == 0

    def test_victim_respects_protect(self):
        s = LRUSet(assoc=2)
        s.put(1, "keep")
        s.put(2, "evictable")
        victim = s.victim_tag(protect=lambda e: e == "keep")
        assert victim == 2

    def test_victim_none_when_all_protected(self):
        s = LRUSet(assoc=1)
        s.put(1, "keep")
        assert s.victim_tag(protect=lambda e: True) is None

    @given(st.lists(st.integers(min_value=0, max_value=9), max_size=60))
    @settings(max_examples=50)
    def test_lru_order_matches_reference(self, refs):
        """The set behaves exactly like an ideal LRU of capacity 4."""
        s = LRUSet(assoc=4)
        reference = []  # LRU first
        for tag in refs:
            if s.get(tag) is not None:
                reference.remove(tag)
                reference.append(tag)
                continue
            if s.is_full():
                victim = s.victim_tag()
                assert victim == reference.pop(0)
                s.remove(victim)
            s.put(tag, tag)
            reference.append(tag)
        assert s.tags() == reference
