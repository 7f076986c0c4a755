"""Buffer pool: page cache with LRU, pins, and instrumented metadata.

The pool is where two classic cross-epoch dependences live:

* the **hash-bucket heads** — every page fetch loads its bucket word;
* the **LRU chain head** — in an unoptimized engine every fetch also
  *stores* to the global LRU head, making any two concurrent epochs
  dependent through a single word.  The TLS-optimized engine defers LRU
  maintenance (``lru_updates=False``), which is one of the software
  changes the paper's iterative tuning process produces.

The pool holds real :class:`~repro.minidb.page.Page` objects; for the
memory-resident TPC-C configuration the capacity is large enough that
pages are never evicted, but eviction is fully implemented (and tested)
for smaller pools.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional

from ..trace.recorder import NullRecorder
from .errors import MiniDBError
from .page import Page


class BufferPool:
    """Page cache keyed by page id."""

    def __init__(
        self,
        recorder: NullRecorder,
        capacity_pages: int = 1 << 20,
        lru_updates: bool = True,
        pin_stores: bool = True,
        n_hash_buckets: int = 1024,
    ):
        self.recorder = recorder
        self.capacity = capacity_pages
        #: Unoptimized engines touch the shared LRU head on every fetch.
        self.lru_updates = lru_updates
        #: Unoptimized engines store the pin count into the shared frame
        #: control block on every fetch/unpin; the TLS-optimized engine
        #: makes pinning CPU-local (the paper's tuning removed these
        #: dependences from the critical path).
        self.pin_stores = pin_stores
        self.n_hash_buckets = n_hash_buckets
        #: Residual dependence the tuning process cannot remove: every
        #: ``clock_sweep_interval`` fetches the pool advances its clock
        #: hand, writing shared replacement metadata.  This is the kind of
        #: sparse, unpredictable cross-epoch dependence the paper says
        #: remains after optimization ("actual data dependences which are
        #: difficult to optimize away") and that sub-threads tolerate.
        self.clock_sweep_interval = 32
        self._fetch_counter = 0
        self._frames: "OrderedDict[int, Page]" = OrderedDict()
        self._pins: Dict[int, int] = {}
        #: Pages evicted from the pool ("on disk"); kept so the engine is
        #: functionally correct when the pool is smaller than the data.
        self._backing: Dict[int, Page] = {}
        self.fetches = 0
        self.pool_misses = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    # Fetch / pin
    # ------------------------------------------------------------------

    def fetch(self, page_id: int, for_write: bool = False) -> Page:
        """Fetch and pin a page, emitting the metadata trace records."""
        rec = self.recorder
        amap = rec.addr_map
        costs = rec.costs
        self.fetches += 1
        rec.compute(costs.bufferpool_lookup)
        bucket = page_id % self.n_hash_buckets
        rec.load(amap.pool_hash_addr(bucket), 4, "bufferpool.hash_probe")
        page = self._frames.get(page_id)
        if page is None:
            page = self._backing.pop(page_id, None)
            if page is None:
                raise MiniDBError(f"page {page_id} does not exist")
            self.pool_misses += 1
            rec.compute(costs.bufferpool_fill)
            self._make_room()
            self._frames[page_id] = page
            rec.store(
                amap.pool_hash_addr(bucket), 4, "bufferpool.hash_insert"
            )
        else:
            self._frames.move_to_end(page_id)
        # Pin: the frame control block is touched on every fetch.  The
        # TLS-optimized engine keeps pin counts in a per-thread array
        # instead — same instruction cost, but a private address, so no
        # cross-epoch dependence.
        if self.pin_stores:
            rec.load(amap.frame_ctl_addr(page_id), 4, "bufferpool.pin_read")
            rec.store(amap.frame_ctl_addr(page_id), 4, "bufferpool.pin_write")
        else:
            private = rec.scratch_addr(0x1000 + (page_id % 512) * 4)
            rec.load(private, 4, "bufferpool.local_pin_read")
            rec.store(private, 4, "bufferpool.local_pin_write")
        self._pins[page_id] = self._pins.get(page_id, 0) + 1
        if self.lru_updates:
            rec.compute(costs.bufferpool_lru)
            rec.load(amap.lru_head_addr(), 4, "bufferpool.lru_read")
            rec.store(amap.lru_head_addr(), 4, "bufferpool.lru_write")
        else:
            # Deferred LRU: the reference is noted in a per-thread buffer
            # and batch-applied later (similar instruction cost, private
            # address).
            rec.compute(costs.bufferpool_lru)
            rec.store(
                rec.scratch_addr(0x2000), 4, "bufferpool.lru_defer"
            )
        self._fetch_counter += 1
        if self._fetch_counter % self.clock_sweep_interval == 0:
            rec.compute(costs.bufferpool_lru)
            rec.load(amap.lru_tail_addr(), 4, "bufferpool.clock_read")
            rec.store(amap.lru_tail_addr(), 4, "bufferpool.clock_sweep")
        return page

    def unpin(self, page_id: int) -> None:
        pins = self._pins.get(page_id, 0)
        if pins <= 0:
            raise MiniDBError(f"unpin of unpinned page {page_id}")
        if pins == 1:
            del self._pins[page_id]
        else:
            self._pins[page_id] = pins - 1
        rec = self.recorder
        if self.pin_stores:
            rec.store(
                rec.addr_map.frame_ctl_addr(page_id), 4, "bufferpool.unpin"
            )
        else:
            rec.store(
                rec.scratch_addr(0x1000 + (page_id % 512) * 4),
                4,
                "bufferpool.local_unpin",
            )

    def add_page(self, page: Page) -> None:
        """Install a newly-allocated page (no fetch instrumentation)."""
        self._make_room()
        self._frames[page.page_id] = page

    def _make_room(self) -> None:
        while len(self._frames) >= self.capacity:
            victim_id = None
            for pid in self._frames:
                if self._pins.get(pid, 0) == 0:
                    victim_id = pid
                    break
            if victim_id is None:
                raise MiniDBError("buffer pool full of pinned pages")
            self._backing[victim_id] = self._frames.pop(victim_id)
            self.evictions += 1

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def resident(self, page_id: int) -> bool:
        return page_id in self._frames

    def pin_count(self, page_id: int) -> int:
        return self._pins.get(page_id, 0)

    def resident_count(self) -> int:
        return len(self._frames)

    def get_any(self, page_id: int) -> Optional[Page]:
        """Direct (untraced) access, for tests and loaders."""
        page = self._frames.get(page_id)
        if page is None:
            page = self._backing.get(page_id)
        return page
