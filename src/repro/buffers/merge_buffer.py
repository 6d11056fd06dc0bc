"""Merge buffer: coalesces committed stores before they reach the L1.

Committed stores move from the store buffer into the merge buffer (MB, 4
entries in Table II).  Stores to the same cache line merge into one entry, so
the number of L1 write accesses is reduced.  When the buffer is full the
oldest entry is evicted and becomes a *merge buffer entry* (MBE) travelling
to the cache — through the Input Buffer in MALEC (lowest priority, not time
critical) or directly through a cache port in the baselines.

Loads must also search the MB, since it can hold data newer than the cache;
MALEC uses the same split (shared page-id + narrow offset) lookup structure
as for the store buffer.
"""

from __future__ import annotations

from typing import List, Optional

from repro.memory.address import AddressLayout, DEFAULT_LAYOUT
from repro.stats import StatCounters


class MergeBuffer:
    """Fixed-capacity, line-granular write-combining buffer.

    Each entry is the line address of one cache line's worth of merged,
    committed store data, oldest first.
    """

    def __init__(
        self,
        entries: int = 4,
        layout: AddressLayout = DEFAULT_LAYOUT,
        stats: Optional[StatCounters] = None,
    ) -> None:
        if entries <= 0:
            raise ValueError("the merge buffer needs at least one entry")
        self.entries = entries
        self.layout = layout
        self.stats = stats if stats is not None else StatCounters()
        self._entries: List[int] = []

    # ------------------------------------------------------------------
    @property
    def occupancy(self) -> int:
        """Number of lines currently buffered."""
        return len(self._entries)

    @property
    def full(self) -> bool:
        """True when an incoming store to a new line would force an eviction."""
        return len(self._entries) >= self.entries

    # ------------------------------------------------------------------
    # Commit path
    # ------------------------------------------------------------------
    def commit_store(self, virtual_address: int) -> Optional[int]:
        """Place a committed store into the buffer.

        Returns the evicted entry's line address when the buffer had to make
        room (the caller forwards it to the cache / Input Buffer), or
        ``None`` when the store merged or a free slot existed.  Line address
        0 is a valid eviction, so callers test the result with ``is not
        None``.
        """
        line_address = self.layout.line_address(virtual_address)
        entries = self._entries
        if line_address in entries:
            self.stats.add("mb.merged_store")
            return None

        evicted: Optional[int] = None
        if len(entries) >= self.entries:
            evicted = entries.pop(0)
            self.stats.add("mb.eviction")
        entries.append(line_address)
        self.stats.add("mb.allocate")
        return evicted

    def drain(self) -> List[int]:
        """Remove and return every entry's line address (end-of-simulation flush)."""
        drained = self._entries
        self._entries = []
        if drained:
            self.stats.add("mb.drain", len(drained))
        return drained

    # ------------------------------------------------------------------
    # Load lookups (the per-load search of the entries is
    # BaseL1Interface._forwarding_lookups, which charges these counters)
    # ------------------------------------------------------------------
    def charge_shared_page_lookup(self) -> None:
        """Charge the per-cycle shared page-id comparison of the split structure."""
        self.stats.add("mb.lookup_page_shared")
