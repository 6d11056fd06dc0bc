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

import random
from typing import Callable, Dict, List, Optional

from repro.memory.address import AddressLayout, DEFAULT_LAYOUT
from repro.stats import StatCounters
from repro.tlb.page_table import PageTable

#: Callback fired when a TLB slot takes a new page:
#: ``(slot, old_physical_page or None, new_virtual_page)``
EvictionCallback = Callable[[int, Optional[int], int], None]


class TLB:
    """A fully-associative translation buffer of ``entries`` slots.

    The class is used for both the 64-entry main TLB and the 16-entry uTLB
    (Table II).  Its state is a handful of columns indexed by slot:

    * ``_vpages`` and ``_ppages`` hold each slot's virtual and physical page,
      ``None`` while the slot is empty;
    * ``_by_vpage`` and ``_by_ppage`` map each resident page back to its slot;
    * the replacement state.  A TLB built with a ``seed`` replaces at random
      through its own ``_rng`` (the main TLB); one built without replaces by
      second chance, with a reference bit per slot in ``_referenced`` and the
      clock hand ``_hand`` (the uTLB).

    Way tables index their entries by TLB slot, so the slot index is part
    of every lookup result and the eviction callback reports which slot was
    recycled.
    """

    def __init__(
        self,
        entries: int,
        name: str = "tlb",
        stats: Optional[StatCounters] = None,
        seed: Optional[int] = None,
    ) -> None:
        if entries <= 0:
            raise ValueError("a TLB needs at least one entry")
        self.name = name
        self.entries = entries
        self.stats = stats if stats is not None else StatCounters()
        self._vpages: List[Optional[int]] = [None] * entries
        self._ppages: List[Optional[int]] = [None] * entries
        self._by_vpage: Dict[int, int] = {}
        self._by_ppage: Dict[int, int] = {}
        self._rng = random.Random(seed) if seed is not None else None
        self._referenced = bytearray(entries) if seed is None else None
        self._hand = 0
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
        """Register a callback fired when a slot takes a new page."""
        self._eviction_callbacks.append(callback)

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def lookup(self, virtual_page: int, count_event: bool = True) -> Optional[int]:
        """Return the slot index holding ``virtual_page`` or ``None``.

        ``count_event`` distinguishes real (energy-consuming) lookups from
        bookkeeping probes issued by the model itself.  A hit sets the slot's
        reference bit under second chance.
        """
        slot = self._by_vpage.get(virtual_page)
        if slot is None:
            if count_event:
                self.stats.bump_many(self._combo_miss)
            return None
        if count_event:
            self.stats.bump_many(self._combo_hit)
        if self._referenced is not None:
            self._referenced[slot] = 1
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

    @property
    def occupancy(self) -> int:
        """Number of valid translations currently held."""
        return len(self._by_vpage)

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------
    def _victim(self) -> int:
        """Slot the next new page takes.

        An empty slot wins while one exists: random replacement draws among
        the empty slots in slot order, second chance takes the lowest.  In
        a full TLB random replacement draws among all slots, and second
        chance sweeps the clock hand, clearing set reference bits, to the
        first slot whose bit is clear; one revolution clears every set bit,
        so the sweep ends within two.
        """
        if len(self._by_vpage) < self.entries:
            if self._rng is not None:
                empty = [slot for slot, page in enumerate(self._vpages) if page is None]
                return self._rng.choice(empty)
            return self._vpages.index(None)
        if self._rng is not None:
            return self._rng.choice(range(self.entries))
        referenced = self._referenced
        hand = self._hand
        while referenced[hand]:
            referenced[hand] = 0
            hand = (hand + 1) % self.entries
        self._hand = (hand + 1) % self.entries
        return hand

    def insert(self, virtual_page: int, physical_page: int) -> int:
        """Install a translation and return the slot index used.

        Precondition: ``virtual_page`` is not resident in this level (the
        caller inserts only after a lookup missed, as
        :meth:`TLBHierarchy.translate_page_pair` does).  The page takes the
        replacement policy's victim slot, and the registered eviction
        callbacks (which the way tables use to write back / invalidate their
        per-slot entries) learn the slot, the physical page it held (``None``
        if it was empty) and the new virtual page.
        """
        slot = self._victim()
        old_ppage = self._ppages[slot]
        if old_ppage is not None:
            self.stats.bump(self._h_eviction)
            self._by_vpage.pop(self._vpages[slot], None)
            self._by_ppage.pop(old_ppage, None)
        for callback in self._eviction_callbacks:
            callback(slot, old_ppage, virtual_page)
        self._vpages[slot] = virtual_page
        self._ppages[slot] = physical_page
        self._by_vpage[virtual_page] = slot
        self._by_ppage[physical_page] = slot
        if self._referenced is not None:
            self._referenced[slot] = 1
        self.stats.bump(self._h_fill)
        return slot


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
        self.utlb = TLB(utlb_entries, name="utlb", stats=self.stats)
        self.tlb = TLB(tlb_entries, name="tlb", stats=self.stats, seed=seed + 1)
        self._h_walk = self.stats.handle("tlb.walk")
        self._page_shift = layout.page_offset_bits

    def translate_pair(self, virtual_address: int):
        """Translate a full address, returning ``(physical_address, latency)``.

        :meth:`translate_page_pair` on the address's page id, with the page
        offset put back on the physical page.  The baselines translate every
        load, store and merge-buffer write-back through this method.
        """
        physical_page, latency = self.translate_page_pair(self.layout.page_id(virtual_address))
        offset = virtual_address & self.layout._page_offset_mask
        return ((physical_page << self._page_shift) | offset, latency)

    def translate_page_pair(self, virtual_page: int):
        """Translate a bare page id, returning ``(physical_page, latency)``.

        The one uTLB -> TLB -> page-walk path.  The latency is the *added*
        translation latency beyond the pipelined uTLB access: 0 for a uTLB
        hit, 1 cycle for a TLB hit (which refills the uTLB), ``walk_latency``
        cycles for a page walk (which refills both levels).  Either way the
        page is in the uTLB afterwards.  The MALEC interface calls it once
        per page group.
        """
        utlb = self.utlb
        slot = utlb._by_vpage.get(virtual_page)
        if slot is not None:
            self.stats.bump_many(utlb._combo_hit)
            utlb._referenced[slot] = 1
            return (utlb._ppages[slot], 0)
        self.stats.bump_many(utlb._combo_miss)
        tlb_slot = self.tlb.lookup(virtual_page)
        if tlb_slot is not None:
            ppage = self.tlb._ppages[tlb_slot]
            utlb.insert(virtual_page, ppage)
            return (ppage, 1)
        return (self.walk_page(virtual_page), self.walk_latency)

    def walk_page(self, virtual_page: int) -> int:
        """Walk the page table for ``virtual_page``, which missed both
        levels, and fill the TLB, then the uTLB; return the physical page.

        The one page walk: :meth:`translate_page_pair` and the specialized
        kernels, which take every other step of a translation inline, both
        call it, so they share the walk and the TLB's random draws.
        """
        ppage = self.page_table.translate_page(virtual_page)
        self.stats.bump(self._h_walk)
        self.tlb.insert(virtual_page, ppage)
        self.utlb.insert(virtual_page, ppage)
        return ppage
