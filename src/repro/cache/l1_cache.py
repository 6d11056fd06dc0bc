"""Banked L1 data cache.

The L1 data cache of Table II: 32 KByte, 4-way set-associative, 64-byte
lines, physically indexed / physically tagged, four independent single-ported
banks with 128-bit sub-blocked data arrays, 2-cycle access latency (1- and
3-cycle variants are explored in Sec. VI).

The cache itself is deliberately unmodified by MALEC ("to allow the re-use of
existing, highly optimized designs"); the interface in front of it decides
which accesses reach which bank in a given cycle and whether they carry way
hints.  Misses are serviced by the L2/DRAM hierarchy; line fills and
evictions invoke registered listeners so that way tables (and the WDU) can
keep their validity bits coherent, exactly as Sec. V requires.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.cache.cache_bank import CacheBank
from repro.cache.l2_cache import L2Cache
from repro.memory.address import AddressLayout, DEFAULT_LAYOUT
from repro.stats import StatCounters

#: Signature of fill/evict listeners: (line_physical_address, way)
LineListener = Callable[[int, int], None]


class L1DataCache:
    """Four-bank L1 data cache with miss handling and fill/evict listeners."""

    # Fixed per-access counter patterns, counted with one add_many call.
    _combo_load_hit = (("l1.load", 1), ("l1.load_hit", 1))
    _combo_load_miss = (("l1.load", 1), ("l1.load_miss", 1))
    _combo_store_hit = (("l1.store", 1), ("l1.store_hit", 1))
    _combo_store_miss = (("l1.store", 1), ("l1.store_miss", 1))

    def __init__(
        self,
        layout: AddressLayout = DEFAULT_LAYOUT,
        hit_latency: int = 2,
        restrict_way_allocation: bool = False,
        l2: Optional[L2Cache] = None,
        stats: Optional[StatCounters] = None,
    ) -> None:
        self.layout = layout
        self.hit_latency = hit_latency
        self.stats = stats if stats is not None else StatCounters()
        self.l2 = l2 if l2 is not None else L2Cache(layout=layout, stats=self.stats)
        self._fill_listeners: List[LineListener] = []
        self._evict_listeners: List[LineListener] = []
        self.banks: List[CacheBank] = [
            CacheBank(
                bank_index=index,
                layout=layout,
                stats=self.stats,
                restrict_way_allocation=restrict_way_allocation,
                on_evict=self._notify_evict,
                on_fill=self._notify_fill,
            )
            for index in range(layout.l1_banks)
        ]

    # ------------------------------------------------------------------
    # Listener plumbing (keeps way tables / WDU coherent with the cache)
    # ------------------------------------------------------------------
    def add_fill_listener(self, listener: LineListener) -> None:
        """Register a callback invoked as ``listener(line_address, way)`` on fills."""
        self._fill_listeners.append(listener)

    def add_evict_listener(self, listener: LineListener) -> None:
        """Register a callback invoked as ``listener(line_address, way)`` on evictions."""
        self._evict_listeners.append(listener)

    def _notify_fill(self, line_address: int, way: int) -> None:
        for listener in self._fill_listeners:
            listener(line_address, way)

    def _notify_evict(self, line_address: int, way: int) -> None:
        for listener in self._evict_listeners:
            listener(line_address, way)

    # ------------------------------------------------------------------
    # Accesses
    # ------------------------------------------------------------------
    def bank_for(self, physical_address: int) -> CacheBank:
        """Bank that owns ``physical_address``."""
        return self.banks[self.layout.bank_index(physical_address)]

    def load_parts(self, physical_address: int, way_hint: Optional[int] = None):
        """Service a load, handling the miss path through L2/DRAM.

        ``way_hint`` (from a way table or WDU; ``None`` = unknown) selects a
        reduced access.  A miss fetches the line from the L2 and fills it,
        writing back a dirty victim.
        Returns ``(hit, way, latency, reduced, bank_index, way_hint_wrong)``:
        ``way`` is the hit or filled way, ``latency`` includes L2/DRAM time
        on a miss, and ``way_hint_wrong`` flags a hint that did not match.
        """
        layout = self.layout
        bank_index = layout.bank_index(physical_address)
        bank = self.banks[bank_index]
        set_index = (physical_address >> layout._set_shift) & layout._set_mask
        tag = physical_address >> layout._tag_shift
        hit, way, reduced, hint_wrong = bank.read_parts(set_index, tag, way_hint)
        if hit:
            self.stats.add_many(self._combo_load_hit)
            return True, way, self.hit_latency, reduced, bank_index, hint_wrong

        self.stats.add_many(self._combo_load_miss)
        miss_latency = self.l2.access(physical_address, is_write=False)
        way, evicted_address, evicted_dirty = bank.fill_parts(
            physical_address, set_index, tag, False
        )
        if evicted_dirty:
            self.l2.access(evicted_address, is_write=True)
        return False, way, self.hit_latency + miss_latency, False, bank_index, hint_wrong

    def store_parts(self, physical_address: int, way_hint: Optional[int] = None):
        """Service a store (write-allocate, write-back).

        Returns ``(hit, way, latency, reduced, bank_index)``, as
        :meth:`load_parts` does without the hint-mismatch flag.
        """
        layout = self.layout
        bank_index = layout.bank_index(physical_address)
        bank = self.banks[bank_index]
        set_index = (physical_address >> layout._set_shift) & layout._set_mask
        tag = physical_address >> layout._tag_shift
        hit, way, reduced = bank.write_parts(set_index, tag, way_hint)
        if hit:
            self.stats.add_many(self._combo_store_hit)
            return True, way, self.hit_latency, reduced, bank_index

        self.stats.add_many(self._combo_store_miss)
        miss_latency = self.l2.access(physical_address, is_write=False)
        way, evicted_address, evicted_dirty = bank.fill_parts(
            physical_address, set_index, tag, True
        )
        self.stats.add("l1.data_write")
        if evicted_dirty:
            self.l2.access(evicted_address, is_write=True)
        return False, way, self.hit_latency + miss_latency, False, bank_index

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def contains(self, physical_address: int) -> bool:
        """True if the line is resident in the L1."""
        return self.bank_for(physical_address).contains(physical_address)

    def way_of(self, physical_address: int) -> Optional[int]:
        """Way currently holding the line, or ``None``."""
        return self.bank_for(physical_address).way_of(physical_address)

    def occupancy(self) -> int:
        """Number of valid lines across all banks."""
        return sum(bank.occupancy() for bank in self.banks)
