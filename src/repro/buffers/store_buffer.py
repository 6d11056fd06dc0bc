"""Store buffer with full-width and page-split lookup accounting.

Stores that finish address computation enter the store buffer (SB, 24 entries
in Table II) and remain there until they commit, at which point they move to
the merge buffer.  Loads must search the SB for older overlapping stores so
that speculatively buffered data can be forwarded.

The baselines perform one full-width associative lookup per load.  MALEC
splits the lookup structure into a shared page-id segment (one comparison per
cycle, shared by the whole page group) and per-access narrow offset segments
(Sec. IV); both are modelled and counted separately so their energies can be
compared even though the paper excludes the SB from its final numbers.
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro.memory.address import AddressLayout, DEFAULT_LAYOUT
from repro.stats import StatCounters


class StoreBufferEntry:
    """A speculative store waiting to commit (slotted: one entry per store)."""

    __slots__ = ("tag", "virtual_address", "size", "committed")

    def __init__(self, tag: Any, virtual_address: int, size: int) -> None:
        self.tag = tag
        self.virtual_address = virtual_address
        self.size = size
        self.committed = False


class StoreBuffer:
    """Fixed-capacity buffer of speculative stores in program order."""

    def __init__(
        self,
        entries: int = 24,
        layout: AddressLayout = DEFAULT_LAYOUT,
        stats: Optional[StatCounters] = None,
    ) -> None:
        if entries <= 0:
            raise ValueError("the store buffer needs at least one entry")
        self.entries = entries
        self.layout = layout
        self.stats = stats if stats is not None else StatCounters()
        self._entries: List[StoreBufferEntry] = []
        #: tag -> entry index for O(1) commit marking (tags are unique)
        self._by_tag: dict = {}
        #: number of committed-but-not-drained entries (cheap quiescence check)
        self._committed_count = 0
        # Per-access counters resolved to integer slots once (hot path).
        self._h_insert = self.stats.handle("sb.insert")
        self._h_lookup_offset = self.stats.handle("sb.lookup_offset")
        self._h_lookup_full = self.stats.handle("sb.lookup_full")
        self._h_forward_hit = self.stats.handle("sb.forward_hit")
        self._h_lookup_page_shared = self.stats.handle("sb.lookup_page_shared")
        self._h_drain = self.stats.handle("sb.drain")

    # ------------------------------------------------------------------
    @property
    def occupancy(self) -> int:
        """Number of stores currently buffered."""
        return len(self._entries)

    @property
    def full(self) -> bool:
        """True when no further store can be accepted."""
        return len(self._entries) >= self.entries

    def insert(self, tag: Any, virtual_address: int, size: int) -> StoreBufferEntry:
        """Add a store that finished address computation."""
        if self.full:
            raise RuntimeError("store buffer overflow")
        entry = StoreBufferEntry(tag, virtual_address, size)
        self._entries.append(entry)
        self._by_tag[tag] = entry
        self.stats.bump(self._h_insert)
        return entry

    # ------------------------------------------------------------------
    # Load forwarding lookups (the per-load search of the entries is
    # BaseL1Interface._forwarding_lookups, which charges these counters)
    # ------------------------------------------------------------------
    def charge_shared_page_lookup(self) -> None:
        """Charge the per-cycle shared page-id comparison of the split structure."""
        self.stats.bump(self._h_lookup_page_shared)

    # ------------------------------------------------------------------
    # Commit path
    # ------------------------------------------------------------------
    @property
    def committed_count(self) -> int:
        """Number of committed stores still waiting to drain to the MB."""
        return self._committed_count

    def mark_committed(self, tag: Any) -> Optional[StoreBufferEntry]:
        """Flag the store identified by ``tag`` as committed (ready for the MB)."""
        entry = self._by_tag.get(tag)
        if entry is not None and not entry.committed:
            entry.committed = True
            self._committed_count += 1
            return entry
        return None

    def pop_committed(self) -> Optional[StoreBufferEntry]:
        """Remove and return the oldest committed store, if any."""
        if not self._committed_count:
            return None
        for index, entry in enumerate(self._entries):
            if entry.committed:
                self.stats.bump(self._h_drain)
                self._committed_count -= 1
                self._entries.pop(index)
                if self._by_tag.get(entry.tag) is entry:
                    del self._by_tag[entry.tag]
                return entry
        return None
