"""Generic set-associative cache bookkeeping.

This is pure bookkeeping (tags, sets, LRU) shared by the L1 caches; the
speculative L2 (``repro.memory.l2``) has richer per-entry metadata and its
own implementation, but reuses the geometry helpers here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List


def _is_pow2(x: int) -> bool:
    return x > 0 and (x & (x - 1)) == 0


@dataclass(frozen=True)
class CacheGeometry:
    """Size/associativity/line-size geometry with address slicing helpers.

    Line size and set count are powers of two, so the address slicing
    used on every simulated memory access reduces to precomputed
    shift/mask constants (stashed as pseudo-fields in ``__post_init__``).
    """

    size_bytes: int
    assoc: int
    line_size: int

    def __post_init__(self):
        if not _is_pow2(self.line_size):
            raise ValueError("line_size must be a power of two")
        if self.size_bytes % (self.assoc * self.line_size) != 0:
            raise ValueError(
                "size must be a multiple of assoc * line_size "
                f"(got {self.size_bytes}, {self.assoc}, {self.line_size})"
            )
        n_sets = self.size_bytes // (self.assoc * self.line_size)
        if not _is_pow2(n_sets):
            raise ValueError("number of sets must be a power of two")
        object.__setattr__(self, "_n_sets", n_sets)
        object.__setattr__(self, "line_shift", self.line_size.bit_length() - 1)
        object.__setattr__(self, "offset_mask", self.line_size - 1)
        object.__setattr__(self, "line_mask", ~(self.line_size - 1))
        object.__setattr__(self, "set_mask", n_sets - 1)

    @property
    def n_sets(self) -> int:
        return self._n_sets

    def line_addr(self, addr: int) -> int:
        """Line-aligned address (the unit of coherence/tracking)."""
        return addr & self.line_mask

    def set_index(self, addr: int) -> int:
        return (addr >> self.line_shift) & self.set_mask

    def tag(self, addr: int) -> int:
        """Full line address doubles as the tag (sets are derived from it)."""
        return addr & self.line_mask

    def lines_touched(self, addr: int, size: int) -> Iterable[int]:
        """Line addresses spanned by an access of ``size`` bytes.

        Almost every access fits in one line; return a 1-tuple there so
        the caller's loop avoids generator overhead.
        """
        mask = self.line_mask
        first = addr & mask
        last = (addr + max(size, 1) - 1) & mask
        if first == last:
            return (first,)
        return range(first, last + 1, self.line_size)


class LRUSet:
    """One cache set with true-LRU replacement.

    Entries are arbitrary objects keyed by tag; most-recently-used order is
    maintained by list position (index 0 = LRU, last = MRU).  The owning
    cache inserts and evicts through ``_order``/``_by_tag`` directly
    (``L1Cache.fill``).
    """

    __slots__ = ("assoc", "_order", "_by_tag")

    def __init__(self, assoc: int):
        self.assoc = assoc
        self._order: List[int] = []  # tags, LRU first
        self._by_tag: Dict[int, object] = {}

    def get(self, tag: int, touch: bool = True):
        """Return the entry for ``tag`` (None if absent), updating LRU."""
        entry = self._by_tag.get(tag)
        if entry is not None and touch:
            order = self._order
            if order[-1] != tag:
                order.remove(tag)
                order.append(tag)
        return entry

    def peek(self, tag: int):
        return self._by_tag.get(tag)

    def entries(self) -> List[object]:
        return list(self._by_tag.values())

    def remove(self, tag: int):
        """Remove and return the entry for ``tag`` (None if absent)."""
        entry = self._by_tag.pop(tag, None)
        if entry is not None:
            self._order.remove(tag)
        return entry
