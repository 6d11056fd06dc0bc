"""Fully-associative TLB and micro-TLB with reverse (physical) lookups.

Sec. V of the paper requires the uTLB and TLB to be searchable by physical
page id as well as by virtual page id, because the cache performs line fills
and evictions with physical tags and the way tables attached to each TLB
level must be located from those physical addresses.  The energy methodology
(Sec. VI-A) therefore treats each TLB as *two* fully-associative tag arrays
(a virtual one and a physical one) in front of the shared WT data array;
this module counts the corresponding events separately.

Replacement follows the paper: second chance for the uTLB (to limit the
number of full uWT→WT entry transfers) and random for the TLB.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.cache.replacement import (
    RandomReplacement,
    ReplacementPolicy,
    SecondChanceReplacement,
)
from repro.memory.address import AddressLayout, DEFAULT_LAYOUT
from repro.stats import StatCounters
from repro.tlb.page_table import PageTable


class TLBEntry:
    """One translation held by a TLB (slotted: one per TLB slot)."""

    __slots__ = ("valid", "virtual_page", "physical_page")

    def __init__(
        self, valid: bool = False, virtual_page: int = 0, physical_page: int = 0
    ) -> None:
        self.valid = valid
        self.virtual_page = virtual_page
        self.physical_page = physical_page


#: Callback fired when a TLB slot is replaced: (slot_index, old_entry, new_entry)
EvictionCallback = Callable[[int, TLBEntry, TLBEntry], None]


class TLB:
    """A fully-associative translation buffer with one slot per policy way.

    The class is used for both the 64-entry main TLB and the 16-entry uTLB
    (Table II); only the replacement policy, which also fixes the size,
    differs.  Way tables index their entries by TLB slot, so the slot index
    is part of every lookup result and the eviction callback reports which
    slot was recycled.
    """

    def __init__(
        self,
        policy: ReplacementPolicy,
        name: str = "tlb",
        layout: AddressLayout = DEFAULT_LAYOUT,
        stats: Optional[StatCounters] = None,
    ) -> None:
        self.name = name
        self.layout = layout
        self.entries = policy.ways
        self.stats = stats if stats is not None else StatCounters()
        self._slots: List[TLBEntry] = [TLBEntry() for _ in range(self.entries)]
        self._policy = policy
        self._by_vpage: Dict[int, int] = {}
        self._by_ppage: Dict[int, int] = {}
        self._valid_count = 0
        self._eviction_callbacks: List[EvictionCallback] = []
        # Per-access counters resolved to integer slots once (hot path); the
        # f-string name construction otherwise runs on every lookup.
        self._h_lookup = self.stats.handle(f"{name}.lookup")
        self._h_miss = self.stats.handle(f"{name}.miss")
        self._h_hit = self.stats.handle(f"{name}.hit")
        self._h_reverse_lookup = self.stats.handle(f"{name}.reverse_lookup")
        self._h_reverse_miss = self.stats.handle(f"{name}.reverse_miss")
        self._h_reverse_hit = self.stats.handle(f"{name}.reverse_hit")
        self._h_eviction = self.stats.handle(f"{name}.eviction")
        self._h_fill = self.stats.handle(f"{name}.fill")
        # Fixed per-lookup counter patterns, flushed with one bump_many call.
        self._combo_hit = ((self._h_lookup, 1), (self._h_hit, 1))
        self._combo_miss = ((self._h_lookup, 1), (self._h_miss, 1))

    # ------------------------------------------------------------------
    def add_eviction_callback(self, callback: EvictionCallback) -> None:
        """Register a callback fired when a slot's translation is replaced."""
        self._eviction_callbacks.append(callback)

    def slot(self, index: int) -> TLBEntry:
        """Direct access to slot ``index`` (used by way tables and tests)."""
        return self._slots[index]

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def lookup(self, virtual_page: int, count_event: bool = True) -> Optional[int]:
        """Return the slot index holding ``virtual_page`` or ``None``.

        ``count_event`` distinguishes real (energy-consuming) lookups from
        bookkeeping probes issued by the model itself.
        """
        slot = self._by_vpage.get(virtual_page)
        if slot is None:
            if count_event:
                self.stats.bump_many(self._combo_miss)
            return None
        if count_event:
            self.stats.bump_many(self._combo_hit)
        self._policy.touch(slot)
        return slot

    def reverse_lookup(self, physical_page: int, count_event: bool = True) -> Optional[int]:
        """Slot index holding the translation *to* ``physical_page`` (or ``None``).

        Used on cache line fills/evictions, which know only physical tags.
        """
        if count_event:
            self.stats.bump(self._h_reverse_lookup)
        slot = self._by_ppage.get(physical_page)
        if slot is None:
            if count_event:
                self.stats.bump(self._h_reverse_miss)
            return None
        if count_event:
            self.stats.bump(self._h_reverse_hit)
        return slot

    def translation(self, virtual_page: int) -> Optional[int]:
        """Physical page for ``virtual_page`` if resident (no event counted)."""
        slot = self._by_vpage.get(virtual_page)
        if slot is None:
            return None
        return self._slots[slot].physical_page

    @property
    def occupancy(self) -> int:
        """Number of valid translations currently held."""
        return sum(1 for entry in self._slots if entry.valid)

    def resident_virtual_pages(self) -> List[int]:
        """Virtual pages currently covered (helper for invariants)."""
        return sorted(self._by_vpage)

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------
    def insert(self, virtual_page: int, physical_page: int) -> int:
        """Install a translation and return the slot index used.

        If the virtual page is already resident its slot is refreshed.  A
        full TLB evicts a victim chosen by the replacement policy and informs
        the registered eviction callbacks (which the way tables use to write
        back / invalidate their per-slot entries).
        """
        existing = self._by_vpage.get(virtual_page)
        if existing is not None:
            entry = self._slots[existing]
            if entry.physical_page != physical_page:
                self._by_ppage.pop(entry.physical_page, None)
                entry.physical_page = physical_page
                self._by_ppage[physical_page] = existing
            self._policy.touch(existing)
            return existing

        if self._valid_count >= self.entries:
            # Steady state: every slot valid, skip building the mask.
            slot = self._policy.victim_full()
        else:
            slot = self._policy.victim([entry.valid for entry in self._slots])
        old = self._slots[slot]
        new = TLBEntry(valid=True, virtual_page=virtual_page, physical_page=physical_page)
        if old.valid:
            self.stats.bump(self._h_eviction)
            self._by_vpage.pop(old.virtual_page, None)
            self._by_ppage.pop(old.physical_page, None)
        else:
            self._valid_count += 1
        for callback in self._eviction_callbacks:
            callback(slot, old, new)
        self._slots[slot] = new
        self._by_vpage[virtual_page] = slot
        self._by_ppage[physical_page] = slot
        self._policy.touch(slot)
        self.stats.bump(self._h_fill)
        return slot

    def invalidate_all(self) -> None:
        """Drop every translation (no callbacks; used for context switches)."""
        self._slots = [TLBEntry() for _ in range(self.entries)]
        self._by_vpage.clear()
        self._by_ppage.clear()
        self._valid_count = 0


class TLBHierarchy:
    """uTLB + TLB + page table, the translation path of Fig. 2a.

    Parameters follow Table II: a 16-entry uTLB with second-chance
    replacement in front of a 64-entry TLB with random replacement.  A uTLB
    miss that hits in the TLB refills the uTLB; a TLB miss walks the page
    table (``walk_latency`` cycles) and refills both levels.
    """

    def __init__(
        self,
        layout: AddressLayout = DEFAULT_LAYOUT,
        utlb_entries: int = 16,
        tlb_entries: int = 64,
        walk_latency: int = 30,
        page_table: Optional[PageTable] = None,
        stats: Optional[StatCounters] = None,
        seed: int = 0,
    ) -> None:
        self.layout = layout
        self.walk_latency = walk_latency
        self.stats = stats if stats is not None else StatCounters()
        self.page_table = page_table if page_table is not None else PageTable(
            layout=layout, seed=seed, stats=self.stats
        )
        self.utlb = TLB(
            SecondChanceReplacement(utlb_entries),
            name="utlb",
            layout=layout,
            stats=self.stats,
        )
        self.tlb = TLB(
            RandomReplacement(tlb_entries, seed=seed + 1),
            name="tlb",
            layout=layout,
            stats=self.stats,
        )
        self._h_walk = self.stats.handle("tlb.walk")
        self._page_shift = layout.page_offset_bits

    def translate_pair(self, virtual_address: int):
        """Translate a full address, returning ``(physical_address, latency)``.

        :meth:`translate_page_pair` on the address's page id, with the page
        offset put back on the physical page.  The baselines translate every
        load, store and merge-buffer write-back through this method.
        """
        parts = self.layout.decompose(virtual_address)
        physical_page, latency = self.translate_page_pair(parts.page_id)
        return ((physical_page << self._page_shift) | parts.page_offset, latency)

    def translate_page_pair(self, virtual_page: int):
        """Translate a bare page id, returning ``(physical_page, latency)``.

        The one uTLB -> TLB -> page-walk path.  The latency is the *added*
        translation latency beyond the pipelined uTLB access: 0 for a uTLB
        hit, 1 cycle for a TLB hit (which refills the uTLB), ``walk_latency``
        cycles for a page walk (which refills both levels).  The MALEC
        interface calls it once per page group.
        """
        utlb = self.utlb
        slot = utlb._by_vpage.get(virtual_page)
        if slot is not None:
            self.stats.bump_many(utlb._combo_hit)
            utlb._policy.touch(slot)
            return (utlb._slots[slot].physical_page, 0)
        self.stats.bump_many(utlb._combo_miss)
        tlb_slot = self.tlb.lookup(virtual_page)
        if tlb_slot is not None:
            ppage = self.tlb.slot(tlb_slot).physical_page
            self.utlb.insert(virtual_page, ppage)
            return (ppage, 1)
        ppage = self.page_table.translate_page(virtual_page)
        self.stats.bump(self._h_walk)
        self.tlb.insert(virtual_page, ppage)
        self.utlb.insert(virtual_page, ppage)
        return (ppage, self.walk_latency)
