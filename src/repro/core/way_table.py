"""Page-Based Way Determination (Sec. V of the paper).

Way tables hold, for every page covered by a TLB level, a 2-bit code per
cache line of that page combining validity and way information.  Because one
specific way per line group is declared "unknown" (the code 0), the remaining
three ways plus "unknown" fit in 2 bits, shrinking a 64-line entry to 128 bits
instead of the naive 192 bits (64 x (1 valid + 2 way) bits).

Two way tables exist, mirroring the two TLB levels (Fig. 3):

* the **uWT** sits next to the 16-entry uTLB and is read on every uTLB hit —
  a hit returns the way codes for *all* lines of the page, so a whole group
  of same-page accesses is serviced by a single read;
* the **WT** sits next to the 64-entry TLB and holds entries for every TLB
  resident page; it refills the uWT on uTLB misses and absorbs uWT entries
  written back on uTLB evictions.

Validity bits are set on cache line fills and cleared on evictions, located
through *reverse* (physical) TLB lookups.  When the uWT predicts "unknown"
but the subsequent conventional access hits, the hit way is fed back through
the *last-entry register* without a second uTLB lookup; Sec. V reports this
feedback raises coverage from 75 % to 94 %.
"""

from __future__ import annotations

from typing import List, Optional

from repro.memory.address import AddressLayout, DEFAULT_LAYOUT
from repro.stats import StatCounters
from repro.tlb.tlb import TLB, TLBEntry, TLBHierarchy


#: (banks, associativity, lines_per_page) -> per-line encode/decode tables
_CODEC_CACHE: dict = {}


def _codec_tables(layout: AddressLayout):
    """Per-line encode/decode tables for the 2-bit way codes.

    ``decode[line][code]`` is the physical way (or ``None`` for code 0) and
    ``encode[line][way]`` the code (or ``None`` when ``way`` is the line's
    excluded way).  Precomputing them once per geometry removes the
    list-building ``representable.index(...)`` work from every way-table
    lookup and update (both sit on the per-fill/per-access hot path).
    """
    key = (layout.l1_banks, layout.l1_associativity, layout.lines_per_page)
    tables = _CODEC_CACHE.get(key)
    if tables is None:
        assoc = layout.l1_associativity
        decode: List[List[Optional[int]]] = []
        encode: List[List[Optional[int]]] = []
        for line in range(layout.lines_per_page):
            excluded = (line // layout.l1_banks) % assoc
            representable = [w for w in range(assoc) if w != excluded]
            decode.append([None] + representable)
            encode.append(
                [None if w == excluded else representable.index(w) + 1 for w in range(assoc)]
            )
        tables = _CODEC_CACHE[key] = (decode, encode)
    return tables


class WayTableEntry:
    """Way codes for the 64 lines of one page, packed 2 bits per line.

    The code of line ``i`` is interpreted relative to that line's *excluded*
    way (Sec. V: lines 0..3 exclude way 0, lines 4..7 exclude way 1, ...):

    ========  =============================================
    code      meaning
    ========  =============================================
    0         way unknown / line not present
    1..3      the line resides in the c-th remaining way
    ========  =============================================
    """

    def __init__(self, layout: AddressLayout = DEFAULT_LAYOUT) -> None:
        self.layout = layout
        self._codes: List[int] = [0] * layout.lines_per_page
        self._decode_tbl, self._encode_tbl = _codec_tables(layout)

    # ------------------------------------------------------------------
    # Encoding helpers
    # ------------------------------------------------------------------
    def excluded_way(self, line_in_page: int) -> int:
        """Way that cannot be represented for ``line_in_page``."""
        self._check_line(line_in_page)
        return (line_in_page // self.layout.l1_banks) % self.layout.l1_associativity

    def _check_line(self, line_in_page: int) -> None:
        if line_in_page < 0 or line_in_page >= self.layout.lines_per_page:
            raise ValueError(
                f"line {line_in_page} outside 0..{self.layout.lines_per_page - 1}"
            )

    def _encode(self, line_in_page: int, way: int) -> Optional[int]:
        """Map a physical way to its 2-bit code (``None`` if not encodable)."""
        if way < 0 or way >= self.layout.l1_associativity:
            raise ValueError(f"way {way} outside the cache associativity")
        self._check_line(line_in_page)
        return self._encode_tbl[line_in_page][way]

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def way_of(self, line_in_page: int) -> Optional[int]:
        """Determined way of ``line_in_page``, or ``None`` when unknown (the
        line must then take a conventional access)."""
        return self._decode_tbl[line_in_page][self._codes[line_in_page]]

    def update(self, line_in_page: int, way: int) -> bool:
        """Record that ``line_in_page`` now resides in ``way``.

        Returns ``False`` when the way equals the line's excluded way and the
        entry therefore has to record "unknown" instead.
        """
        code = self._encode(line_in_page, way)
        if code is None:
            self._codes[line_in_page] = 0
            return False
        self._codes[line_in_page] = code
        return True

    def invalidate_line(self, line_in_page: int) -> None:
        """Clear the code of one line (cache eviction)."""
        self._check_line(line_in_page)
        self._codes[line_in_page] = 0

    def clear(self) -> None:
        """Invalidate the whole entry (page replaced in the TLB)."""
        self._codes = [0] * self.layout.lines_per_page

    def copy_from(self, other: "WayTableEntry") -> None:
        """Overwrite this entry with the codes of ``other`` (entry transfer)."""
        if other.layout.lines_per_page != self.layout.lines_per_page:
            raise ValueError("way table entries have incompatible geometries")
        self._codes = list(other._codes)

    def known_lines(self) -> int:
        """Number of lines with a valid way determination."""
        return sum(1 for code in self._codes if code != 0)

    # ------------------------------------------------------------------
    # Storage accounting (Fig. 3 discussion)
    # ------------------------------------------------------------------
    @property
    def storage_bits(self) -> int:
        """Bits of storage used by the packed format (128 for 64 lines)."""
        return 2 * self.layout.lines_per_page

    @property
    def naive_storage_bits(self) -> int:
        """Bits a separate valid + way-id encoding would need (192)."""
        way_bits = max(1, (self.layout.l1_associativity - 1).bit_length())
        return (1 + way_bits) * self.layout.lines_per_page


class WayTable:
    """A way table whose entries parallel the slots of one TLB level."""

    def __init__(
        self,
        tlb: TLB,
        name: str = "wt",
        layout: AddressLayout = DEFAULT_LAYOUT,
        stats: Optional[StatCounters] = None,
    ) -> None:
        self.name = name
        self.layout = layout
        self.tlb = tlb
        self.stats = stats if stats is not None else StatCounters()
        self._entries: List[WayTableEntry] = [
            WayTableEntry(layout) for _ in range(tlb.entries)
        ]
        # Per-access counters resolved to integer slots once (hot path).
        self._h_read = self.stats.handle(f"{name}.read")
        self._h_update = self.stats.handle(f"{name}.update")
        self._h_clear = self.stats.handle(f"{name}.clear")
        self._h_entry_transfer = self.stats.handle(f"{name}.entry_transfer")

    # ------------------------------------------------------------------
    def entry(self, slot: int) -> WayTableEntry:
        """Entry paired with TLB slot ``slot``."""
        return self._entries[slot]

    def read(self, slot: int) -> WayTableEntry:
        """Read the entry of ``slot`` (counted as one array read)."""
        self.stats.bump(self._h_read)
        return self._entries[slot]

    def update_line(self, slot: int, line_in_page: int, way: int) -> bool:
        """Record a fill / feedback update for one line (one array write)."""
        self.stats.bump(self._h_update)
        return self._entries[slot].update(line_in_page, way)

    def invalidate_line(self, slot: int, line_in_page: int) -> None:
        """Clear validity of one line (cache eviction); one array write."""
        self.stats.bump(self._h_update)
        self._entries[slot].invalidate_line(line_in_page)

    def clear_entry(self, slot: int) -> None:
        """Invalidate the whole entry (page replaced)."""
        self.stats.bump(self._h_clear)
        self._entries[slot].clear()

    def write_entry(self, slot: int, entry: WayTableEntry) -> None:
        """Overwrite the entry of ``slot`` with ``entry`` (entry transfer)."""
        self.stats.bump(self._h_entry_transfer)
        self._entries[slot].copy_from(entry)

    @property
    def total_storage_bits(self) -> int:
        """Total data-array storage of this way table."""
        return sum(entry.storage_bits for entry in self._entries)


class WayTableHierarchy:
    """uWT + WT coupled to a :class:`~repro.tlb.tlb.TLBHierarchy`.

    The class wires together every synchronisation rule of Sec. V:

    * uTLB miss (TLB hit) → the WT entry is copied into the uWT slot taken by
      the refilled translation;
    * uTLB eviction → the uWT entry is written back to the WT (if the page is
      still TLB resident);
    * TLB eviction → the WT entry is cleared; if the page is later re-fetched
      a fresh, all-invalid entry is allocated;
    * L1 line fill/eviction → the entry of the owning page is updated through
      a reverse (physical) lookup, preferring the uWT and falling back to the
      WT ("the WT is only updated if no corresponding uWT entry was found");
    * unknown prediction followed by a conventional hit → feedback through
      the last-entry register (``enable_feedback_update``).
    """

    def __init__(
        self,
        translation: TLBHierarchy,
        layout: AddressLayout = DEFAULT_LAYOUT,
        stats: Optional[StatCounters] = None,
        enable_feedback_update: bool = True,
    ) -> None:
        self.layout = layout
        self.translation = translation
        self.stats = stats if stats is not None else StatCounters()
        self.enable_feedback_update = enable_feedback_update
        self.uwt = WayTable(translation.utlb, name="uwt", layout=layout, stats=self.stats)
        self.wt = WayTable(translation.tlb, name="wt", layout=layout, stats=self.stats)
        #: Last-entry register: uWT slot of the most recent prediction, used
        #: to feed conventional-hit ways back without a second uTLB lookup.
        self._last_uwt_slot: Optional[int] = None
        translation.utlb.add_eviction_callback(self._on_utlb_replacement)
        translation.tlb.add_eviction_callback(self._on_tlb_replacement)
        self._h_feedback_update = self.stats.handle("way_pred.feedback_update")
        # Remaining per-event counters resolved to integer slots (hot path).
        self._h_uwt_writeback = self.stats.handle("uwt.writeback")
        self._h_wt_page_invalidated = self.stats.handle("wt.page_invalidated")
        self._h_fill_unmapped = self.stats.handle("way_pred.fill_unmapped")
        self._h_evict_unmapped = self.stats.handle("way_pred.evict_unmapped")
        self._h_unencodable = self.stats.handle("way_pred.unencodable_way")

    # ------------------------------------------------------------------
    # TLB synchronisation
    # ------------------------------------------------------------------
    def _on_utlb_replacement(self, slot: int, old: TLBEntry, new: TLBEntry) -> None:
        """uTLB slot recycled: write the old uWT entry back, load the new one."""
        if old.valid:
            tlb_slot = self.translation.tlb.reverse_lookup(
                old.physical_page, count_event=False
            )
            if tlb_slot is not None:
                self.wt.write_entry(tlb_slot, self.uwt.entry(slot))
                self.stats.bump(self._h_uwt_writeback)
        # Load the WT entry of the incoming page (if TLB resident) so the uWT
        # immediately covers it; otherwise start from an empty entry.
        new_tlb_slot = self.translation.tlb.lookup(new.virtual_page, count_event=False)
        if new_tlb_slot is not None:
            self.uwt.write_entry(slot, self.wt.entry(new_tlb_slot))
        else:
            self.uwt.clear_entry(slot)
        if self._last_uwt_slot == slot:
            self._last_uwt_slot = None

    def _on_tlb_replacement(self, slot: int, old: TLBEntry, new: TLBEntry) -> None:
        """TLB slot recycled: all way information of the old page is lost."""
        self.wt.clear_entry(slot)
        if old.valid:
            self.stats.bump(self._h_wt_page_invalidated)

    # ------------------------------------------------------------------
    # Prediction path
    # ------------------------------------------------------------------
    def predict_page(self, virtual_page: int) -> Optional[WayTableEntry]:
        """Return the way-table entry covering ``virtual_page`` after translation.

        The caller must have already performed the translation for this page
        this cycle (the entry read shares the TLB access).  Returns ``None``
        when no entry is available (should not happen after a translation,
        but kept defensive for uninitialised pages).
        """
        slot = self.translation.utlb.lookup(virtual_page, count_event=False)
        if slot is not None:
            self._last_uwt_slot = slot
            self.uwt.stats.bump(self.uwt._h_read)
            return self.uwt.entry(slot)
        tlb_slot = self.translation.tlb.lookup(virtual_page, count_event=False)
        if tlb_slot is not None:
            self._last_uwt_slot = None
            self.wt.stats.bump(self.wt._h_read)
            return self.wt.entry(tlb_slot)
        return None

    # ------------------------------------------------------------------
    # Feedback and cache-coherence updates
    # ------------------------------------------------------------------
    def feedback_conventional_hit(self, physical_address: int, way: int) -> None:
        """Unknown prediction but the conventional access hit: update the uWT.

        Uses the last-entry register, i.e. no additional uTLB lookup is
        charged (Sec. V).  Disabled when ``enable_feedback_update`` is False —
        the ablation that reproduces the 75 % vs 94 % coverage comparison.
        """
        if not self.enable_feedback_update:
            return
        if self._last_uwt_slot is None:
            return
        line_in_page = self.layout.decompose(physical_address).line_in_page
        self.uwt.update_line(self._last_uwt_slot, line_in_page, way)
        self.stats.bump(self._h_feedback_update)

    def _locate_slot_for_physical(self, physical_address: int):
        """Find (table, slot) owning the page of ``physical_address``."""
        ppage = self.layout.decompose(physical_address).page_id
        slot = self.translation.utlb.reverse_lookup(ppage)
        if slot is not None:
            return self.uwt, slot
        slot = self.translation.tlb.reverse_lookup(ppage)
        if slot is not None:
            return self.wt, slot
        return None, None

    def on_line_fill(self, line_address: int, way: int) -> None:
        """L1 installed a line: set its validity/way in the owning entry."""
        table, slot = self._locate_slot_for_physical(line_address)
        if table is None:
            self.stats.bump(self._h_fill_unmapped)
            return
        line_in_page = self.layout.line_in_page(line_address)
        if not table.update_line(slot, line_in_page, way):
            self.stats.bump(self._h_unencodable)

    def on_line_evict(self, line_address: int, way: int) -> None:
        """L1 evicted a line: clear its validity in the owning entry."""
        table, slot = self._locate_slot_for_physical(line_address)
        if table is None:
            self.stats.bump(self._h_evict_unmapped)
            return
        table.invalidate_line(slot, self.layout.line_in_page(line_address))

    def attach_to_cache(self, l1_cache) -> None:
        """Register fill/evict listeners on an :class:`L1DataCache`."""
        l1_cache.add_fill_listener(self.on_line_fill)
        l1_cache.add_evict_listener(self.on_line_evict)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    @property
    def total_storage_bits(self) -> int:
        """Combined uWT + WT data-array storage."""
        return self.uwt.total_storage_bits + self.wt.total_storage_bits
