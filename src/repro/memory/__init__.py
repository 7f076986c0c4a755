"""Memory-hierarchy substrate: caches, speculative L2, victim cache, timing.

The structures here implement Section 2 of the paper: write-through L1
data caches with speculative-line marks, a shared L2 that buffers
speculative state for every in-flight sub-thread context (line-granularity
load bits, word-granularity mod bits, multi-version sets), a 64-entry
speculative victim cache, and banked-crossbar / memory-bandwidth timing.
"""

from .cache import CacheGeometry, LRUSet
from .l1 import L1Cache, L1Line
from .l2 import (
    COMMITTED,
    AccessResult,
    ContextDirectory,
    L2Entry,
    SpeculativeL2,
    Violation,
)
from .timing import BankedResource, MemoryChannel, MemorySystemTiming
from .victim import VictimCache

__all__ = [
    "CacheGeometry",
    "LRUSet",
    "L1Cache",
    "L1Line",
    "COMMITTED",
    "AccessResult",
    "ContextDirectory",
    "L2Entry",
    "SpeculativeL2",
    "Violation",
    "BankedResource",
    "MemoryChannel",
    "MemorySystemTiming",
    "VictimCache",
]
