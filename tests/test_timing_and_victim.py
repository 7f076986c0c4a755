"""Tests for the victim cache and the banked timing resources."""

import pytest

from repro.memory.l2 import L2Entry
from repro.memory.timing import (
    BankedResource,
    MemoryChannel,
    MemorySystemTiming,
)
from repro.memory.victim import VictimCache


class TestVictimCache:
    def entry(self, tag):
        return L2Entry(tag=tag, owner=1)

    def test_insert_within_capacity(self):
        v = VictimCache(capacity=2)
        e = self.entry(0x100)
        assert v.insert(e) is None
        assert v.contains(e)
        assert len(v) == 1

    def test_overflow_returns_lru(self):
        v = VictimCache(capacity=2)
        e1, e2, e3 = (self.entry(t) for t in (1, 2, 3))
        v.insert(e1)
        v.insert(e2)
        overflow = v.insert(e3)
        assert overflow is e1
        assert v.overflows == 1

    def test_touch_updates_lru(self):
        v = VictimCache(capacity=2)
        e1, e2, e3 = (self.entry(t) for t in (1, 2, 3))
        v.insert(e1)
        v.insert(e2)
        v.touch(e1)
        assert v.insert(e3) is e2

    def test_touch_missing_raises(self):
        v = VictimCache(capacity=2)
        with pytest.raises(KeyError):
            v.touch(self.entry(9))

    def test_zero_capacity_rejects_everything(self):
        v = VictimCache(capacity=0)
        e = self.entry(1)
        assert v.insert(e) is e

    def test_versions_of(self):
        v = VictimCache(capacity=4)
        a = self.entry(0x100)
        b = L2Entry(tag=0x100, owner=2)
        c = self.entry(0x200)
        for e in (a, b, c):
            v.insert(e)
        assert v.versions_of(0x100) == [a, b]

    def test_remove(self):
        v = VictimCache(capacity=2)
        e = self.entry(1)
        v.insert(e)
        v.remove(e)
        assert not v.contains(e)
        with pytest.raises(KeyError):
            v.remove(e)

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            VictimCache(capacity=-1)


class TestBankedResource:
    def test_no_contention_when_idle(self):
        banks = BankedResource(n_banks=2, occupancy=4, line_size=32)
        assert banks.reserve(0x000, now=100) == 100

    def test_back_to_back_same_bank_queues(self):
        banks = BankedResource(n_banks=2, occupancy=4, line_size=32)
        banks.reserve(0x000, now=0)
        start = banks.reserve(0x000, now=1)
        assert start == 4

    def test_different_banks_independent(self):
        banks = BankedResource(n_banks=2, occupancy=4, line_size=32)
        banks.reserve(0x000, now=0)   # bank 0
        start = banks.reserve(0x020, now=0)  # bank 1
        assert start == 0

    def test_bank_of_wraps(self):
        """Addresses four lines apart queue on one of four banks."""
        banks = BankedResource(n_banks=4, occupancy=4, line_size=32)
        banks.reserve(0x00, now=0)
        assert banks.reserve(4 * 32, now=0) == 4

    def test_non_power_of_two_banks_wrap(self):
        """Three banks (``MachineConfig.l2_banks`` may be 3) take the
        divide/modulo bank selection."""
        banks = BankedResource(n_banks=3, occupancy=4, line_size=32)
        banks.reserve(0x00, now=0)
        assert banks.reserve(3 * 32, now=0) == 4
        assert banks.reserve(4 * 32, now=0) == 0

    def test_requires_a_bank(self):
        with pytest.raises(ValueError):
            BankedResource(n_banks=0, occupancy=1, line_size=32)


class TestMemoryChannel:
    def test_gap_enforced(self):
        ch = MemoryChannel(gap=20)
        assert ch.reserve(0) == 0
        assert ch.reserve(5) == 20


class TestMemorySystemTiming:
    def test_l2_hit_latency(self):
        msys = MemorySystemTiming(l2_latency=10)
        assert msys.l2_access(0x0, now=0) == 10

    def test_memory_latency_path(self):
        msys = MemorySystemTiming(
            l2_latency=10, memory_latency=75, memory_gap=20
        )
        # bank start 0 -> l2 at 10 -> memory start 10 -> data at 85.
        assert msys.memory_access(0x0, now=0) == 85

    def test_memory_bandwidth_serializes(self):
        msys = MemorySystemTiming(memory_gap=20, memory_latency=75)
        first = msys.extra_memory_transfer(0)
        second = msys.extra_memory_transfer(0)
        assert second - first == 20
