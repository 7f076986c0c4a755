"""Tests for the victim cache, the banked timing resources and the load
latency the machine composes from them."""

import pytest

from repro.core.accounting import Category
from repro.memory.l2 import L2Entry
from repro.memory.timing import (
    BankedResource,
    MemoryChannel,
    MemorySystemTiming,
)
from repro.memory.victim import VictimCache
from repro.sim import Machine, MachineConfig
from repro.trace.events import Rec, SerialSegment

from conftest import PC, one_txn_workload

A = 0x1000  # a line-aligned address


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


def _serial_loads(addrs):
    records = [
        (Rec.LOAD, addr, 4, PC + 8 * i) for i, addr in enumerate(addrs)
    ]
    return one_txn_workload([SerialSegment(records=records)])


class TestMemorySystemTiming:
    @pytest.mark.parametrize("compile_traces", [True, False])
    def test_load_latency_composition(self, compile_traces):
        """The machine composes a load's latency from the bank, the L2
        and the memory channel, identically on both replay paths."""
        # One 4-way L1 set: every line below maps to it.
        config = MachineConfig(
            l1_size=128, l1_assoc=4, compile_traces=compile_traces
        )
        # A cold line: bank start 0 -> L2 at 10 -> memory start 10 ->
        # data at 85, plus the load's own Busy cycle.
        stats = Machine(config).run(_serial_loads([A]))
        assert stats.total_cycles == 86
        assert stats.breakdown().get(Category.BUSY) == 1
        assert stats.breakdown().get(Category.MISS) == 85
        # Five lines evict the first from the 4-way set; reloading it
        # misses the L1 and hits the L2 (10 cycles).
        stats = Machine(config).run(
            _serial_loads([A + 32 * i for i in range(5)] + [A])
        )
        assert stats.total_cycles == 441
        assert stats.breakdown().get(Category.MISS) == 5 * 85 + 10
        assert (stats.l1_misses, stats.l2_hits, stats.l2_misses) == (
            6, 1, 5
        )

    def test_memory_bandwidth_serializes(self):
        msys = MemorySystemTiming(memory_gap=20, memory_latency=75)
        first = msys.extra_memory_transfer(0)
        second = msys.extra_memory_transfer(0)
        assert second - first == 20
