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

Each way table is one code column: a ``bytearray`` holding
``lines_per_page`` codes for every slot of its TLB level, the entry of slot
``s`` at ``[s * lines_per_page, (s + 1) * lines_per_page)``.  A code is
``way + 1`` for a line whose way is known and 0 for unknown.  Each line has
one *excluded* way, ``(line_in_page // banks) % ways`` (lines 0..3 exclude
way 0, lines 4..7 way 1, ...); recording that way records unknown, so a
code never names it, and the column carries exactly the information of the
2-bit format.  An entry transfer is a slice copy and a clear writes zeros.
"""

from __future__ import annotations

from typing import Optional

from repro.memory.address import AddressLayout, DEFAULT_LAYOUT
from repro.stats import StatCounters
from repro.tlb.tlb import TLBHierarchy


class WayTableHierarchy:
    """uWT + WT coupled to a :class:`~repro.tlb.tlb.TLBHierarchy`.

    The class wires together every synchronisation rule of Sec. V:

    * uTLB miss → the page's WT entry (all unknown after a walk) is copied
      into the uWT slot taken by the refilled translation;
    * uTLB eviction → the uWT entry is written back to the WT (if the page is
      still TLB resident);
    * TLB eviction → the WT entry is cleared; if the page is later re-fetched
      a fresh, all-invalid entry is allocated;
    * L1 line fill/eviction → the entry of the owning page is updated through
      a reverse (physical) lookup, preferring the uWT and falling back to the
      WT ("the WT is only updated if no corresponding uWT entry was found");
    * unknown prediction followed by a conventional hit → feedback through
      the last-entry register (``enable_feedback_update``).

    ``uwt`` and ``wt`` are the two code columns (see the module docstring).
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
        self.lines_per_page = layout.lines_per_page
        self.uwt = bytearray(translation.utlb.entries * self.lines_per_page)
        self.wt = bytearray(translation.tlb.entries * self.lines_per_page)
        self._zeros = bytes(self.lines_per_page)
        #: Last-entry register: uWT slot of the most recent prediction, used
        #: to feed conventional-hit ways back without a second uTLB lookup.
        self._last_uwt_slot: Optional[int] = None
        translation.utlb.add_eviction_callback(self._on_utlb_replacement)
        translation.tlb.add_eviction_callback(self._on_tlb_replacement)
        # Per-event counters resolved to integer slots once (hot path).
        handle = self.stats.handle
        self._h_uwt_read = handle("uwt.read")
        self._h_uwt_update = handle("uwt.update")
        self._h_uwt_transfer = handle("uwt.entry_transfer")
        self._h_wt_update = handle("wt.update")
        self._h_wt_clear = handle("wt.clear")
        self._h_wt_transfer = handle("wt.entry_transfer")
        self._h_feedback_update = handle("way_pred.feedback_update")
        self._h_uwt_writeback = handle("uwt.writeback")
        self._h_wt_page_invalidated = handle("wt.page_invalidated")
        self._h_fill_unmapped = handle("way_pred.fill_unmapped")
        self._h_evict_unmapped = handle("way_pred.evict_unmapped")
        self._h_unencodable = handle("way_pred.unencodable_way")

    # ------------------------------------------------------------------
    # TLB synchronisation
    # ------------------------------------------------------------------
    def _entry(self, slot: int) -> slice:
        """The codes of ``slot``'s entry, in either column."""
        return slice(slot * self.lines_per_page, (slot + 1) * self.lines_per_page)

    def _on_utlb_replacement(
        self, slot: int, old_physical_page: Optional[int], new_virtual_page: int
    ) -> None:
        """uTLB slot recycled: write the old uWT entry back, load the new one."""
        entry = self._entry(slot)
        tlb = self.translation.tlb
        if old_physical_page is not None:
            tlb_slot = tlb.reverse_lookup(old_physical_page, count_event=False)
            if tlb_slot is not None:
                self.wt[self._entry(tlb_slot)] = self.uwt[entry]
                self.stats.bump(self._h_wt_transfer)
                self.stats.bump(self._h_uwt_writeback)
        # Load the WT entry of the incoming page so the uWT immediately covers
        # it.  The page is TLB resident: a translation fills the TLB before
        # the uTLB.
        tlb_slot = tlb.lookup(new_virtual_page, count_event=False)
        self.uwt[entry] = self.wt[self._entry(tlb_slot)]
        self.stats.bump(self._h_uwt_transfer)
        if self._last_uwt_slot == slot:
            self._last_uwt_slot = None

    def _on_tlb_replacement(
        self, slot: int, old_physical_page: Optional[int], new_virtual_page: int
    ) -> None:
        """TLB slot recycled: all way information of the old page is lost."""
        self.wt[self._entry(slot)] = self._zeros
        self.stats.bump(self._h_wt_clear)
        if old_physical_page is not None:
            self.stats.bump(self._h_wt_page_invalidated)

    # ------------------------------------------------------------------
    # Prediction path
    # ------------------------------------------------------------------
    def predict_page(self, virtual_page: int):
        """Return ``(codes, offset)``: the uWT column and the offset of the
        entry of ``virtual_page`` in it (line ``i``'s code is
        ``codes[offset + i]``).

        The caller must have translated the page this cycle: the entry read
        shares that TLB access, and a translation always leaves the page in
        the uTLB, so the uWT covers it.  The read sets the last-entry
        register.
        """
        slot = self.translation.utlb.lookup(virtual_page, count_event=False)
        self._last_uwt_slot = slot
        self.stats.bump(self._h_uwt_read)
        return self.uwt, slot * self.lines_per_page

    # ------------------------------------------------------------------
    # Feedback and cache-coherence updates
    # ------------------------------------------------------------------
    def _record(self, codes: bytearray, slot: int, line_in_page: int, way: int) -> bool:
        """Record ``way`` for ``line_in_page`` in the entry of ``slot``.

        Returns ``False``, recording unknown, when ``way`` is the line's
        excluded way.
        """
        ways = self.layout.l1_associativity
        if way < 0 or way >= ways:
            raise ValueError(f"way {way} outside the cache associativity")
        index = slot * self.lines_per_page + line_in_page
        if way == (line_in_page // self.layout.l1_banks) % ways:
            codes[index] = 0
            return False
        codes[index] = way + 1
        return True

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
        line_in_page = self.layout.line_in_page(physical_address)
        self.stats.bump(self._h_uwt_update)
        self._record(self.uwt, self._last_uwt_slot, line_in_page, way)
        self.stats.bump(self._h_feedback_update)

    def _locate(self, physical_address: int):
        """``(codes, slot, update counter)`` of the entry owning the page of
        ``physical_address``, the uWT's before the WT's, or ``None``.
        """
        ppage = self.layout.page_id(physical_address)
        slot = self.translation.utlb.reverse_lookup(ppage)
        if slot is not None:
            return self.uwt, slot, self._h_uwt_update
        slot = self.translation.tlb.reverse_lookup(ppage)
        if slot is not None:
            return self.wt, slot, self._h_wt_update
        return None

    def on_line_fill(self, line_address: int, way: int) -> None:
        """L1 installed a line: set its validity/way in the owning entry."""
        located = self._locate(line_address)
        if located is None:
            self.stats.bump(self._h_fill_unmapped)
            return
        codes, slot, h_update = located
        self.stats.bump(h_update)
        if not self._record(codes, slot, self.layout.line_in_page(line_address), way):
            self.stats.bump(self._h_unencodable)

    def on_line_evict(self, line_address: int, way: int) -> None:
        """L1 evicted a line: clear its validity in the owning entry."""
        located = self._locate(line_address)
        if located is None:
            self.stats.bump(self._h_evict_unmapped)
            return
        codes, slot, h_update = located
        self.stats.bump(h_update)
        codes[slot * self.lines_per_page + self.layout.line_in_page(line_address)] = 0

    def attach_to_cache(self, l1_cache) -> None:
        """Register fill/evict listeners on an :class:`L1DataCache`."""
        l1_cache.add_fill_listener(self.on_line_fill)
        l1_cache.add_evict_listener(self.on_line_evict)

    # ------------------------------------------------------------------
    # Storage accounting (Fig. 3 discussion)
    # ------------------------------------------------------------------
    @property
    def storage_bits(self) -> int:
        """Bits of one entry in the packed format (128 for 64 lines)."""
        return 2 * self.lines_per_page

    @property
    def naive_storage_bits(self) -> int:
        """Bits of one entry with a separate valid bit and way id (192)."""
        way_bits = max(1, (self.layout.l1_associativity - 1).bit_length())
        return (1 + way_bits) * self.lines_per_page

    @property
    def total_storage_bits(self) -> int:
        """Combined uWT + WT data-array storage."""
        entries = (len(self.uwt) + len(self.wt)) // self.lines_per_page
        return entries * self.storage_bits
