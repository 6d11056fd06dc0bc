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

Each entry is one plain ``(tag, virtual_address, size)`` tuple.  Stores
enter in program order and commit in program order, and a store is still
buffered when it commits, so the committed stores are always the oldest
entries: the buffer records them as a count, ``_committed_count``, of
leading entries.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from repro.memory.address import AddressLayout, DEFAULT_LAYOUT
from repro.stats import StatCounters

#: one buffered store: (tag, virtual_address, size)
StoreEntry = Tuple[Any, int, int]


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
        #: buffered stores, oldest first
        self._entries: List[StoreEntry] = []
        #: the first ``_committed_count`` entries are committed, waiting to drain
        self._committed_count = 0

    # ------------------------------------------------------------------
    @property
    def occupancy(self) -> int:
        """Number of stores currently buffered."""
        return len(self._entries)

    @property
    def full(self) -> bool:
        """True when no further store can be accepted."""
        return len(self._entries) >= self.entries

    def insert(self, tag: Any, virtual_address: int, size: int) -> None:
        """Add a store that finished address computation (program order)."""
        if self.full:
            raise RuntimeError("store buffer overflow")
        self._entries.append((tag, virtual_address, size))
        self.stats.add("sb.insert")

    # ------------------------------------------------------------------
    # Load forwarding lookups (the per-load search of the entries is
    # BaseL1Interface._forwarding_lookups, which charges these counters)
    # ------------------------------------------------------------------
    def charge_shared_page_lookup(self) -> None:
        """Charge the per-cycle shared page-id comparison of the split structure."""
        self.stats.add("sb.lookup_page_shared")

    # ------------------------------------------------------------------
    # Commit path
    # ------------------------------------------------------------------
    @property
    def committed_count(self) -> int:
        """Number of committed stores still waiting to drain to the MB."""
        return self._committed_count

    def mark_committed(self, tag: Any) -> None:
        """Mark the store ``tag`` committed (ready for the MB).

        Stores commit in program order, so ``tag`` must be the oldest
        uncommitted store; anything else raises ``ValueError``.
        """
        index = self._committed_count
        if index >= len(self._entries) or self._entries[index][0] != tag:
            raise ValueError(f"store {tag!r} is not the oldest uncommitted store")
        self._committed_count = index + 1

    def pop_committed(self) -> Optional[StoreEntry]:
        """Remove and return the oldest committed store, if any."""
        if not self._committed_count:
            return None
        self.stats.add("sb.drain")
        self._committed_count -= 1
        return self._entries.pop(0)
