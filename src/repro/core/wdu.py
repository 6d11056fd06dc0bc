"""Line-based Way Determination Unit (Nicolaescu et al., DATE 2003).

The WDU is the prior-art scheme that Page-Based Way Determination is compared
against in Sec. VI-C.  It is a small fully-associative buffer keyed by cache
*line* address; each entry associates one line with exactly one way.  The
paper extends the original WDU with validity bits (kept coherent with cache
fills and evictions) so that — like the way tables — a WDU hit allows a
*reduced* access that bypasses the tag arrays entirely, making the energy
comparison fair.

Two differences to way tables drive the evaluation results:

* a WDU entry covers one line, a WT entry covers a whole page (64 lines), so
  the WT reaches much higher coverage for the same number of entries
  (94 % vs 68/76/78 % for 8/16/32-entry WDUs);
* the WDU needs one fully-associative, tag-sized lookup port per parallel
  memory access (four for the evaluated MALEC configuration), whereas the way
  tables are read once per page group alongside the TLB lookup.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from repro.memory.address import AddressLayout, DEFAULT_LAYOUT
from repro.stats import StatCounters


class WayDeterminationUnit:
    """Fully-associative line-address → way buffer with validity bits.

    Parameters
    ----------
    entries:
        Number of line entries (the paper evaluates 8, 16 and 32).

    Its lookup ports (one per result bus) matter only to the energy model,
    which takes them from :class:`repro.sim.config.MalecParameters`.
    Counters are named ``wdu.*``.
    """

    def __init__(
        self,
        entries: int = 16,
        layout: AddressLayout = DEFAULT_LAYOUT,
        stats: Optional[StatCounters] = None,
    ) -> None:
        if entries <= 0:
            raise ValueError("the WDU needs at least one entry")
        self.entries = entries
        self.layout = layout
        self.stats = stats if stats is not None else StatCounters()
        #: line_number -> way, ordered oldest-first for LRU replacement.
        self._table: "OrderedDict[int, int]" = OrderedDict()

    # ------------------------------------------------------------------
    def predict(self, physical_address: int) -> Optional[int]:
        """Way of the line containing ``physical_address``, or ``None`` when
        the WDU does not know it.

        Each call models one fully-associative lookup (one port's worth of
        energy); callers invoke it once per parallel access.
        """
        line = self.layout.line_number(physical_address)
        self.stats.add("wdu.lookup")
        self.stats.add("way_pred.lookup")
        way = self._table.get(line)
        if way is not None:
            self._table.move_to_end(line)
            self.stats.add("way_pred.known")
        return way

    def record(self, physical_address: int, way: int) -> None:
        """Insert/update the entry for a line after an access resolved its way."""
        if way < 0 or way >= self.layout.l1_associativity:
            raise ValueError(f"way {way} outside the cache associativity")
        line = self.layout.line_number(physical_address)
        self.stats.add("wdu.update")
        if line in self._table:
            self._table[line] = way
            self._table.move_to_end(line)
            return
        if len(self._table) >= self.entries:
            self._table.popitem(last=False)
            self.stats.add("wdu.eviction")
        self._table[line] = way

    # ------------------------------------------------------------------
    # Cache coherence (the validity-bit extension)
    # ------------------------------------------------------------------
    def on_line_fill(self, line_address: int, way: int) -> None:
        """Cache line filled: record its way."""
        self.record(line_address, way)

    def on_line_evict(self, line_address: int, way: int) -> None:
        """Cache line evicted: drop the entry so no stale way is returned."""
        line = self.layout.line_number(line_address)
        if line in self._table:
            del self._table[line]
            self.stats.add("wdu.invalidate")

    def attach_to_cache(self, l1_cache) -> None:
        """Register fill/evict listeners on an :class:`L1DataCache`."""
        l1_cache.add_fill_listener(self.on_line_fill)
        l1_cache.add_evict_listener(self.on_line_evict)

    # ------------------------------------------------------------------
    @property
    def occupancy(self) -> int:
        """Number of lines currently tracked."""
        return len(self._table)

    @property
    def storage_bits(self) -> int:
        """Data storage: line tag + way id + valid bit per entry."""
        line_tag_bits = self.layout.address_bits - self.layout.line_offset_bits
        way_bits = max(1, (self.layout.l1_associativity - 1).bit_length())
        return self.entries * (line_tag_bits + way_bits + 1)
