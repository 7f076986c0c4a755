"""Property tests: victim-cache bookkeeping and L2 version retention.

The paper's footnote-1 guarantee is that a speculative line evicted from
an L2 set is *never silently lost*: it lands in the victim cache and is
found again by later accesses, or — if the victim cache itself
overflows — the owning epochs are explicitly squashed (overflow rewind).
These tests drive both structures with hypothesis-generated operation
sequences and check that guarantee exhaustively.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory.cache import CacheGeometry
from repro.memory.l2 import COMMITTED, L2Entry, SpeculativeL2
from repro.memory.victim import VictimCache


class _Directory:
    """Single-context directory: ctx 0 belongs to epoch order 0."""

    def order_of(self, ctx: int) -> int:
        return 0

    def subidx_of(self, ctx: int) -> int:
        return 0


class TestVictimCacheProperties:
    @given(
        capacity=st.integers(min_value=0, max_value=6),
        ops=st.lists(
            st.tuples(st.sampled_from(["insert", "touch", "remove"]),
                      st.integers(0, 9)),
            max_size=40,
        ),
    )
    @settings(max_examples=120, deadline=None)
    def test_capacity_and_lru_discipline(self, capacity, ops):
        vc = VictimCache(capacity=capacity)
        next_tag = 0
        resident = []  # our model: LRU first, mirrors the real structure
        for op, arg in ops:
            if op == "insert":
                entry = L2Entry(tag=next_tag, owner=0)
                next_tag += 1
                overflowed = vc.insert(entry)
                if capacity == 0:
                    assert overflowed is entry
                    continue
                resident.append(entry)
                if len(resident) > capacity:
                    # LRU falls out, and only when over capacity.
                    assert overflowed is resident.pop(0)
                else:
                    assert overflowed is None
            elif op == "touch" and resident:
                entry = resident[arg % len(resident)]
                vc.touch(entry)
                resident.remove(entry)
                resident.append(entry)
            elif op == "remove" and resident:
                entry = resident[arg % len(resident)]
                vc.remove(entry)
                resident.remove(entry)
            # Invariants after every step.
            assert len(vc) == len(resident) <= max(capacity, 0)
            assert vc.entries() == resident
        assert vc.inserts == next_tag

    @given(st.integers(min_value=1, max_value=5))
    @settings(max_examples=20, deadline=None)
    def test_overflow_returns_oldest_unntouched(self, capacity):
        vc = VictimCache(capacity=capacity)
        entries = [L2Entry(tag=i, owner=0) for i in range(capacity + 1)]
        for e in entries[:-1]:
            assert vc.insert(e) is None
        assert vc.insert(entries[-1]) is entries[0]
        assert vc.overflows == 1


def _line_addr(i: int, line_size: int = 32) -> int:
    return 0x1000_0000 + i * line_size


class TestL2VersionRetention:
    """Speculative versions survive set eviction or squash explicitly."""

    def _tiny_l2(self, victim_entries: int) -> SpeculativeL2:
        geom = CacheGeometry(size_bytes=128, assoc=2, line_size=32)
        return SpeculativeL2(geom, _Directory(),
                             victim_entries=victim_entries)

    @given(
        victim_entries=st.integers(min_value=0, max_value=4),
        lines=st.lists(st.integers(0, 23), min_size=1, max_size=30),
    )
    @settings(max_examples=120, deadline=None)
    def test_spec_store_found_again_or_overflow_rewind(
        self, victim_entries, lines
    ):
        l2 = self._tiny_l2(victim_entries)
        stored = set()
        squashed = False
        for i in lines:
            addr = _line_addr(i)
            result = l2.store(addr, 4, order=0, ctx=0, store_pc=0x400000)
            if 0 in result.overflow_squash:
                # Overflow rewind: state loss was *reported*, the machine
                # would now squash the epoch.  Model that and stop.
                l2.squash_ctxs(0, [0])
                squashed = True
                break
            stored.add(addr)
            l2.check_invariants()
        if squashed:
            assert l2.speculative_entries() == []
            return
        # No overflow reported: every speculative store must still be
        # findable (in its set or the victim cache).
        for addr in stored:
            versions = l2.versions_of_line(addr)
            assert any(e.owner == 0 and e.spec_mod.get(0) for e in versions), \
                f"speculative line 0x{addr:x} silently lost"
        # And an undersized victim cache never exceeds its capacity.
        assert len(l2.victim) <= max(victim_entries, 0)

    @given(lines=st.lists(st.integers(0, 23), min_size=1, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_committed_lines_may_be_dropped_silently(self, lines):
        """Only *speculative* lines get the victim-cache guarantee;
        committed lines are clean-droppable (refetched from memory)."""
        l2 = self._tiny_l2(victim_entries=2)
        for i in lines:
            result = l2.load(_line_addr(i), 4, order=0, ctx=None,
                             exposed=False)
            assert not result.overflow_squash
        assert len(l2.victim) == 0

    @given(
        reads=st.lists(st.integers(0, 7), min_size=1, max_size=12),
        stores=st.lists(st.integers(0, 7), min_size=1, max_size=12),
    )
    @settings(max_examples=80, deadline=None)
    def test_version_selection_prefers_own_then_committed(
        self, reads, stores
    ):
        """An epoch that stored to a line reads its own version back;
        untouched lines read the committed version."""
        l2 = self._tiny_l2(victim_entries=8)
        stored = set()
        for i in stores:
            addr = _line_addr(i)
            result = l2.store(addr, 4, order=0, ctx=0, store_pc=0x400000)
            if 0 in result.overflow_squash:
                return  # squash path covered by the other property
            stored.add(addr)
        for i in reads:
            addr = _line_addr(i)
            result = l2.load(addr, 4, order=0, ctx=0, exposed=True)
            if 0 in result.overflow_squash:
                continue
            # The version read carries the reader's load bit.
            read = [e.owner for e in l2.versions_of_line(addr)
                    if e.spec_loaded.get(0)]
            assert read == [0 if addr in stored else COMMITTED]
