"""Pages and page allocation for the minidb storage engine.

Pages are real Python objects holding sorted key/value entries (leaf
pages) or separator keys and child pointers (branch pages).  Their
identity doubles as their synthetic physical placement: page ``page_id``
occupies the buffer-pool frame at ``AddressMap.page_addr(page_id)``, which
is where the instrumentation emits loads and stores when the engine
touches the page.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional


LEAF = "leaf"
BRANCH = "branch"


@dataclass
class Page:
    """One fixed-capacity B+-tree page."""

    page_id: int
    kind: str
    #: Sorted keys.  For a branch page, key[i] is the smallest key
    #: reachable through children[i+1].
    keys: List[Any] = field(default_factory=list)
    #: Leaf: values aligned with keys.  Branch: unused.
    values: List[Any] = field(default_factory=list)
    #: Branch: child page ids (len(keys) + 1).  Leaf: unused.
    children: List[int] = field(default_factory=list)
    #: Leaf sibling chain for range scans.
    next_leaf: Optional[int] = None

    @property
    def is_leaf(self) -> bool:
        return self.kind == LEAF

    def find_slot(self, key) -> int:
        """Binary search: index of first key >= ``key``."""
        lo, hi = 0, len(self.keys)
        while lo < hi:
            mid = (lo + hi) // 2
            if self.keys[mid] < key:
                lo = mid + 1
            else:
                hi = mid
        return lo


class PageAllocator:
    """Monotonic page-id allocation (no free list; minidb never shrinks)."""

    def __init__(self, first_id: int = 1):
        self._next = first_id

    def allocate(self) -> int:
        page_id = self._next
        self._next += 1
        return page_id
