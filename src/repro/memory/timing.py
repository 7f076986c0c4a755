"""Timing resources: banked crossbar/L2 occupancy and memory bandwidth.

Table 1 of the paper: the L1s connect to a 4-banked unified L2 through a
crossbar (8 bytes per cycle per bank); main memory sustains one access per
20 cycles; minimum miss latency to the L2 is 10 cycles and to local memory
75 cycles.  We model contention with per-bank and per-channel
"next free cycle" reservations: an access at time *t* begins service at
``max(t, next_free)`` and holds the resource for its occupancy.
"""

from __future__ import annotations

from typing import List


def _is_pow2(x: int) -> bool:
    return x > 0 and (x & (x - 1)) == 0


class BankedResource:
    """N independently-reserved banks selected by address hashing."""

    def __init__(self, n_banks: int, occupancy: int, line_size: int):
        if n_banks < 1:
            raise ValueError("need at least one bank")
        self.n_banks = n_banks
        self.occupancy = occupancy
        self.line_size = line_size
        self._next_free: List[int] = [0] * n_banks
        # With power-of-two line size and bank count (the paper's
        # configuration) bank selection is a shift and a mask; fall back
        # to the exact divide/modulo otherwise.
        if _is_pow2(line_size) and _is_pow2(n_banks):
            self._line_shift = line_size.bit_length() - 1
            self._bank_mask = n_banks - 1
        else:
            self._line_shift = None
            self._bank_mask = None

    def reserve(self, addr: int, now: int) -> int:
        """Reserve the bank for one access; returns the service start time."""
        if self._bank_mask is not None:
            bank = (addr >> self._line_shift) & self._bank_mask
        else:
            bank = (addr // self.line_size) % self.n_banks
        nf = self._next_free
        start = nf[bank]
        if now > start:
            start = now
        nf[bank] = start + self.occupancy
        return start


class MemoryChannel:
    """Main-memory bandwidth: one access per ``gap`` cycles."""

    def __init__(self, gap: int):
        self.gap = gap
        self._next_free = 0

    def reserve(self, now: int) -> int:
        start = max(now, self._next_free)
        self._next_free = start + self.gap
        return start


class MemorySystemTiming:
    """Timing resources of the path L1 miss -> crossbar/L2 bank -> memory.

    The machine composes a load miss's latency from these pieces.  With
    ``start = banks.reserve(line, now)``, an L2 hit returns data at
    ``start + l2_latency`` and an L2 miss at
    ``channel.reserve(start + l2_latency) + memory_latency``.  Stores are
    modeled as non-blocking (write buffer) but still reserve bank/channel
    slots, so they create contention that delays loads — the first-order
    effect of write-through L1s in the paper's design.
    """

    def __init__(
        self,
        l2_banks: int = 4,
        l2_bank_occupancy: int = 4,
        line_size: int = 32,
        l2_latency: int = 10,
        memory_latency: int = 75,
        memory_gap: int = 20,
    ):
        self.l2_latency = l2_latency
        self.memory_latency = memory_latency
        self.banks = BankedResource(l2_banks, l2_bank_occupancy, line_size)
        self.channel = MemoryChannel(memory_gap)

    def extra_memory_transfer(self, now: int) -> int:
        """A background DRAM transfer (writeback / fill side effects)."""
        start = self.channel.reserve(now)
        return start + self.memory_latency
