"""Instrumented B+-tree.

A real B+-tree (sorted keys, page splits, leaf sibling chains) whose every
page access emits trace records through the recorder: buffer-pool fetches,
binary-search probe loads and branches, cell reads/writes, page-header
updates, and latch operations.

Latch discipline (deadlock-free by construction):

* read paths take no latches (modeling shared latches that do not
  conflict in the read-mostly descent);
* leaf modifications latch exactly one leaf page (exclusive);
* structure modifications (splits) additionally take the per-tree latch
  *while already holding the leaf latch*, and a tree-latch holder never
  waits for any further latch — so every waits-for edge points from a
  leaf latch to the tree latch and no cycle can form.

Cell layout: a page holds a 32-byte header followed by fixed-size cells of
``entry_size`` bytes; cell *s* of page *p* lives at
``addr_map.page_addr(p, 32 + s * entry_size)``.  With 32-byte cache lines,
small cells put several entries on one line — sequential-key inserts by
consecutive epochs then collide on the same lines, which is precisely the
kind of internal-structure dependence the paper observes in BerkeleyDB.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..trace.recorder import NullRecorder
from .bufferpool import BufferPool
from .errors import DuplicateKey, KeyNotFound
from .page import BRANCH, LEAF, Page, PageAllocator

#: Latch-id base for per-tree structure-modification latches.
TREE_LATCH_BASE = 2_000_000_000

HEADER_BYTES = 32
BRANCH_ENTRY_BYTES = 16


class BTree:
    """One B+-tree index (a minidb "table" maps to one of these)."""

    def __init__(
        self,
        name: str,
        pool: BufferPool,
        allocator: PageAllocator,
        recorder: NullRecorder,
        page_size: int = 2048,
        entry_size: int = 64,
        tree_id: int = 0,
    ):
        self.name = name
        self.pool = pool
        self.allocator = allocator
        self.recorder = recorder
        self.page_size = page_size
        self.entry_size = entry_size
        self.tree_id = tree_id
        self.leaf_capacity = max(3, (page_size - HEADER_BYTES) // entry_size)
        self.branch_capacity = max(
            3, (page_size - HEADER_BYTES) // BRANCH_ENTRY_BYTES
        )
        root = Page(page_id=allocator.allocate(), kind=LEAF)
        pool.add_page(root)
        self.root_id = root.page_id
        self.height = 1
        self.entry_total = 0
        self.splits = 0
        #: site -> its (header, probe, cmp) PC names in _search_page.
        self._search_sites: Dict[str, Tuple[str, str, str]] = {}

    # ------------------------------------------------------------------
    # Address helpers
    # ------------------------------------------------------------------

    def _cell_addr(self, page: Page, slot: int) -> int:
        size = self.entry_size if page.is_leaf else BRANCH_ENTRY_BYTES
        capacity = (
            self.leaf_capacity if page.is_leaf else self.branch_capacity
        )
        slot = min(slot, capacity - 1)
        return self.recorder.addr_map.page_addr(
            page.page_id, HEADER_BYTES + slot * size
        )

    def _header_addr(self, page: Page) -> int:
        return self.recorder.addr_map.page_header_addr(page.page_id)

    @property
    def tree_latch(self) -> int:
        return TREE_LATCH_BASE + self.tree_id

    def _stamp_page_lsn(self, page: Page, site: str) -> None:
        """WAL rule: every page modification records the log sequence
        number in the page header.  Later epochs read the header during
        their descent/probe of the same leaf, so any two epochs touching
        one leaf — even disjoint cells — are dependent through this
        store.  This is one of the scattered residual dependences the
        paper observes surviving optimization.
        """
        self.recorder.store(self._header_addr(page), 8, f"{site}.page_lsn")

    # ------------------------------------------------------------------
    # Instrumented page-level primitives
    # ------------------------------------------------------------------

    def _search_page(self, page: Page, key, site: str) -> int:
        """Binary search emitting a probe load + branch per step.

        Without a record target the instrumentation would be discarded,
        so the search runs bare; a muted target only interns the PC
        names a recorded search would.
        """
        rec = self.recorder
        keys = page.keys
        if not rec.recording:
            return bisect_left(keys, key)
        names = self._search_sites.get(site)
        if names is None:
            names = (f"{site}.header", f"{site}.probe", f"{site}.cmp")
            self._search_sites[site] = names
        header, probe, cmp = names
        if rec.muted:
            pc = rec.pcs.pc
            pc(header)
            if keys:
                pc(probe)
                pc(cmp)
            return bisect_left(keys, key)
        load, branch, compute = rec.load, rec.branch, rec.compute
        key_compare = rec.costs.key_compare
        load(self._header_addr(page), 8, header)
        # _cell_addr, hoisted: the cell base, size and slot clamp.
        base = self._cell_addr(page, 0)
        if page.is_leaf:
            size, last = self.entry_size, self.leaf_capacity - 1
        else:
            size, last = BRANCH_ENTRY_BYTES, self.branch_capacity - 1
        lo, hi = 0, len(keys)
        while lo < hi:
            mid = (lo + hi) // 2
            compute(key_compare)
            load(base + (mid if mid < last else last) * size, 8, probe)
            if keys[mid] < key:
                branch(cmp, True)
                lo = mid + 1
            else:
                branch(cmp, False)
                hi = mid
        return lo

    def _fetch(self, page_id: int, for_write: bool = False) -> Page:
        self.recorder.compute(self.recorder.costs.btree_level)
        return self.pool.fetch(page_id, for_write=for_write)

    def _descend(self, key, site: str) -> List[Page]:
        """Walk root -> leaf for ``key``; returns the path (pages pinned)."""
        path: List[Page] = []
        page = self._fetch(self.root_id)
        path.append(page)
        while not page.is_leaf:
            slot = self._search_page(page, key, f"{site}.branch")
            # The child to descend into: first separator strictly greater.
            lo, hi = 0, len(page.keys)
            while lo < hi:
                mid = (lo + hi) // 2
                if key < page.keys[mid]:
                    hi = mid
                else:
                    lo = mid + 1
            child_id = page.children[lo]
            page = self._fetch(child_id)
            path.append(page)
        return path

    def _unpin_path(self, path: List[Page]) -> None:
        for page in path:
            self.pool.unpin(page.page_id)

    # ------------------------------------------------------------------
    # Public operations
    # ------------------------------------------------------------------

    def get(self, key) -> Any:
        """Point lookup; raises :class:`KeyNotFound`."""
        rec = self.recorder
        rec.compute(rec.costs.btree_call)
        path = self._descend(key, f"{self.name}.get")
        leaf = path[-1]
        try:
            slot = self._search_page(leaf, key, f"{self.name}.get.leaf")
            if slot >= len(leaf.keys) or leaf.keys[slot] != key:
                rec.branch(f"{self.name}.get.found", False)
                raise KeyNotFound(f"{self.name}: {key!r}")
            rec.branch(f"{self.name}.get.found", True)
            rec.load(
                self._cell_addr(leaf, slot),
                self.entry_size,
                f"{self.name}.get.cell",
            )
            rec.compute(rec.costs.record_copy_per_byte * self.entry_size)
            return leaf.values[slot]
        finally:
            self._unpin_path(path)

    def contains(self, key) -> bool:
        try:
            self.get(key)
            return True
        except KeyNotFound:
            return False

    def insert(self, key, value, overwrite: bool = False) -> None:
        """Insert (or overwrite) a key/value pair."""
        rec = self.recorder
        rec.compute(rec.costs.btree_call)
        path = self._descend(key, f"{self.name}.insert")
        leaf = path[-1]
        # Latch crabbing: the leaf is latched *before* it is read, so two
        # epochs modifying one leaf serialize on the latch (a sync stall)
        # instead of thrashing on dependence violations.
        rec.latch_acquire(leaf.page_id, f"{self.name}.insert.leaf_latch")
        try:
            slot = self._search_page(leaf, key, f"{self.name}.insert.leaf")
            exists = slot < len(leaf.keys) and leaf.keys[slot] == key
            if exists and not overwrite:
                raise DuplicateKey(f"{self.name}: {key!r}")
            if exists:
                leaf.values[slot] = value
                rec.store(
                    self._cell_addr(leaf, slot),
                    self.entry_size,
                    f"{self.name}.insert.overwrite",
                )
                self._stamp_page_lsn(leaf, f"{self.name}.insert")
                return
            rec.compute(rec.costs.leaf_insert)
            leaf.keys.insert(slot, key)
            leaf.values.insert(slot, value)
            self.entry_total += 1
            rec.store(
                self._cell_addr(leaf, slot),
                self.entry_size,
                f"{self.name}.insert.cell",
            )
            rec.store(
                self._header_addr(leaf), 4, f"{self.name}.insert.count"
            )
            # Free-space-map maintenance: the page group's fill factor
            # changes on every insert (shared word — residual dependence).
            rec.load(
                rec.addr_map.fsm_addr(leaf.page_id), 8,
                f"{self.name}.insert.fsm_read",
            )
            rec.store(
                rec.addr_map.fsm_addr(leaf.page_id), 8,
                f"{self.name}.insert.fsm_write",
            )
            if len(leaf.keys) > self.leaf_capacity:
                self._split(path)
        finally:
            rec.latch_release(leaf.page_id)
            self._unpin_path(path)

    def update(self, key, value) -> None:
        """Overwrite the value of an existing key."""
        rec = self.recorder
        rec.compute(rec.costs.btree_call)
        path = self._descend(key, f"{self.name}.update")
        leaf = path[-1]
        rec.latch_acquire(leaf.page_id, f"{self.name}.update.leaf_latch")
        try:
            slot = self._search_page(leaf, key, f"{self.name}.update.leaf")
            if slot >= len(leaf.keys) or leaf.keys[slot] != key:
                raise KeyNotFound(f"{self.name}: {key!r}")
            leaf.values[slot] = value
            rec.store(
                self._cell_addr(leaf, slot),
                self.entry_size,
                f"{self.name}.update.cell",
            )
            self._stamp_page_lsn(leaf, f"{self.name}.update")
        finally:
            rec.latch_release(leaf.page_id)
            self._unpin_path(path)

    def read_modify_write(self, key, fn) -> Any:
        """Atomic read-update of one record (common OLTP pattern).

        Reads the value, applies ``fn``, writes the result back under the
        leaf latch.  Returns the new value.
        """
        rec = self.recorder
        rec.compute(rec.costs.btree_call)
        path = self._descend(key, f"{self.name}.rmw")
        leaf = path[-1]
        rec.latch_acquire(leaf.page_id, f"{self.name}.rmw.leaf_latch")
        try:
            slot = self._search_page(leaf, key, f"{self.name}.rmw.leaf")
            if slot >= len(leaf.keys) or leaf.keys[slot] != key:
                raise KeyNotFound(f"{self.name}: {key!r}")
            rec.load(
                self._cell_addr(leaf, slot),
                self.entry_size,
                f"{self.name}.rmw.read",
            )
            new_value = fn(leaf.values[slot])
            leaf.values[slot] = new_value
            rec.compute(rec.costs.record_copy_per_byte * self.entry_size)
            rec.store(
                self._cell_addr(leaf, slot),
                self.entry_size,
                f"{self.name}.rmw.write",
            )
            self._stamp_page_lsn(leaf, f"{self.name}.rmw")
            return new_value
        finally:
            rec.latch_release(leaf.page_id)
            self._unpin_path(path)

    def delete(self, key) -> Any:
        """Remove a key (lazy deletion: pages may underflow but stay).

        Returns the removed value; raises :class:`KeyNotFound`.
        """
        rec = self.recorder
        rec.compute(rec.costs.btree_call)
        path = self._descend(key, f"{self.name}.delete")
        leaf = path[-1]
        rec.latch_acquire(leaf.page_id, f"{self.name}.delete.leaf_latch")
        try:
            slot = self._search_page(leaf, key, f"{self.name}.delete.leaf")
            if slot >= len(leaf.keys) or leaf.keys[slot] != key:
                raise KeyNotFound(f"{self.name}: {key!r}")
            rec.compute(rec.costs.leaf_insert)  # slot shift cost
            value = leaf.values.pop(slot)
            leaf.keys.pop(slot)
            self.entry_total -= 1
            rec.store(
                self._cell_addr(leaf, slot), 4, f"{self.name}.delete.shift"
            )
            rec.store(
                self._header_addr(leaf), 4, f"{self.name}.delete.count"
            )
            rec.load(
                rec.addr_map.fsm_addr(leaf.page_id), 8,
                f"{self.name}.delete.fsm_read",
            )
            rec.store(
                rec.addr_map.fsm_addr(leaf.page_id), 8,
                f"{self.name}.delete.fsm_write",
            )
            return value
        finally:
            rec.latch_release(leaf.page_id)
            self._unpin_path(path)

    def scan_range(
        self, low, high=None, limit: Optional[int] = None
    ) -> Iterator[Tuple[Any, Any]]:
        """Yield (key, value) for low <= key (< high), in key order.

        Materializes lazily; each visited entry emits a cell load.
        """
        rec = self.recorder
        rec.compute(rec.costs.btree_call)
        path = self._descend(low, f"{self.name}.scan")
        leaf = path[-1]
        slot = self._search_page(leaf, low, f"{self.name}.scan.leaf")
        self._unpin_path(path[:-1])
        yielded = 0
        while True:
            while slot < len(leaf.keys):
                key = leaf.keys[slot]
                if high is not None and not (key < high):
                    self.pool.unpin(leaf.page_id)
                    return
                rec.load(
                    self._cell_addr(leaf, slot),
                    self.entry_size,
                    f"{self.name}.scan.cell",
                )
                rec.compute(
                    rec.costs.record_copy_per_byte * self.entry_size
                )
                yield key, leaf.values[slot]
                yielded += 1
                if limit is not None and yielded >= limit:
                    self.pool.unpin(leaf.page_id)
                    return
                slot += 1
            next_id = leaf.next_leaf
            self.pool.unpin(leaf.page_id)
            if next_id is None:
                return
            leaf = self._fetch(next_id)
            slot = 0

    def first_key(self, prefix_low=None):
        """Smallest key (>= prefix_low if given); None if empty."""
        low = prefix_low if prefix_low is not None else _MINIMUM
        for key, _value in self.scan_range(low, limit=1):
            return key
        return None

    # ------------------------------------------------------------------
    # Splits
    # ------------------------------------------------------------------

    def _split(self, path: List[Page]) -> None:
        """Split the (over-full) leaf at the end of ``path`` and propagate.

        Structure modifications serialize on the tree latch, acquired
        *after* the leaf latch is already held — safe because the tree
        latch is only ever requested while holding one leaf latch, and
        tree-latch holders acquire no further leaf latches (they operate
        on pinned pages directly).
        """
        rec = self.recorder
        rec.latch_acquire(self.tree_latch, f"{self.name}.split.tree_latch")
        try:
            self.splits += 1
            level = len(path) - 1
            page = path[level]
            new_page, sep_key = self._split_page(page)
            # Propagate the separator upward.
            while level > 0:
                parent = path[level - 1]
                slot = parent.find_slot(sep_key)
                rec.compute(rec.costs.leaf_insert)
                parent.keys.insert(slot, sep_key)
                parent.children.insert(slot + 1, new_page.page_id)
                rec.store(
                    self._cell_addr(parent, slot),
                    BRANCH_ENTRY_BYTES,
                    f"{self.name}.split.parent_cell",
                )
                rec.store(
                    self._header_addr(parent),
                    4,
                    f"{self.name}.split.parent_count",
                )
                if len(parent.keys) <= self.branch_capacity:
                    return
                level -= 1
                page = parent
                new_page, sep_key = self._split_page(page)
            # Root split: grow the tree by one level.
            old_root_id = self.root_id
            new_root = Page(
                page_id=self.allocator.allocate(),
                kind=BRANCH,
                keys=[sep_key],
                children=[old_root_id, new_page.page_id],
            )
            self.pool.add_page(new_root)
            self.root_id = new_root.page_id
            self.height += 1
            rec.store(
                self._header_addr(new_root), 8, f"{self.name}.split.new_root"
            )
        finally:
            rec.latch_release(self.tree_latch)

    def _split_page(self, page: Page) -> Tuple[Page, Any]:
        """Move the upper half of ``page`` into a new sibling."""
        rec = self.recorder
        rec.compute(rec.costs.page_split)
        mid = len(page.keys) // 2
        new_page = Page(page_id=self.allocator.allocate(), kind=page.kind)
        if page.is_leaf:
            new_page.keys = page.keys[mid:]
            new_page.values = page.values[mid:]
            del page.keys[mid:]
            del page.values[mid:]
            sep_key = new_page.keys[0]
            new_page.next_leaf = page.next_leaf
            page.next_leaf = new_page.page_id
        else:
            sep_key = page.keys[mid]
            new_page.keys = page.keys[mid + 1:]
            new_page.children = page.children[mid + 1:]
            del page.keys[mid:]
            del page.children[mid + 1:]
        self.pool.add_page(new_page)
        moved = len(new_page.keys)
        rec.store(
            self._cell_addr(new_page, 0),
            min(self.page_size - HEADER_BYTES,
                moved * (self.entry_size if page.is_leaf
                         else BRANCH_ENTRY_BYTES)),
            f"{self.name}.split.copy",
        )
        rec.store(self._header_addr(page), 4, f"{self.name}.split.src_count")
        rec.store(
            self._header_addr(new_page), 4, f"{self.name}.split.dst_count"
        )
        return new_page, sep_key

    def stats(self) -> dict:
        """Structural statistics: height, page counts, fill factors.

        Walks the tree untraced (a diagnostic, not a workload operation).
        """
        leaves = branches = 0
        leaf_entries = branch_entries = 0
        stack = [self.pool.get_any(self.root_id)]
        while stack:
            page = stack.pop()
            if page.is_leaf:
                leaves += 1
                leaf_entries += len(page.keys)
            else:
                branches += 1
                branch_entries += len(page.keys)
                for child in page.children:
                    stack.append(self.pool.get_any(child))
        return {
            "height": self.height,
            "entries": self.entry_total,
            "leaf_pages": leaves,
            "branch_pages": branches,
            "leaf_fill": (
                leaf_entries / (leaves * self.leaf_capacity)
                if leaves else 0.0
            ),
            "branch_fill": (
                branch_entries / (branches * self.branch_capacity)
                if branches else 0.0
            ),
            "splits": self.splits,
        }

    # ------------------------------------------------------------------
    # Invariant checking (tests)
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Key ordering, fanout bounds, leaf chain, and reachability."""
        leaves: List[Page] = []
        self._check_node(self.pool.get_any(self.root_id), None, None, leaves,
                         depth=1)
        # Leaf chain is consistent and sorted.
        chained = []
        page = leaves[0] if leaves else None
        while page is not None:
            chained.append(page.page_id)
            page = (
                self.pool.get_any(page.next_leaf)
                if page.next_leaf is not None
                else None
            )
        assert chained == [l.page_id for l in leaves], "leaf chain broken"
        all_keys = [k for l in leaves for k in l.keys]
        assert all_keys == sorted(all_keys), "keys out of order"
        assert len(all_keys) == self.entry_total, "entry count drift"

    def _check_node(self, page, low, high, leaves, depth):
        assert page is not None, "dangling page reference"
        for i in range(1, len(page.keys)):
            assert page.keys[i - 1] < page.keys[i], "unsorted page"
        if low is not None and page.keys:
            assert not (page.keys[0] < low), "key below subtree bound"
        if high is not None and page.keys:
            assert page.keys[-1] < high, "key above subtree bound"
        if page.is_leaf:
            assert depth == self.height, "uneven leaf depth"
            assert len(page.keys) <= self.leaf_capacity + 1
            leaves.append(page)
            return
        assert len(page.children) == len(page.keys) + 1
        bounds = [low] + list(page.keys) + [high]
        for i, child_id in enumerate(page.children):
            self._check_node(
                self.pool.get_any(child_id),
                bounds[i],
                bounds[i + 1],
                leaves,
                depth + 1,
            )


class _Minimum:
    """Sorts below every other value (for full-table scans)."""

    def __lt__(self, other) -> bool:
        return True

    def __gt__(self, other) -> bool:
        return False


_MINIMUM = _Minimum()
