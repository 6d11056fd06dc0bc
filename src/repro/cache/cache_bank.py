"""A single L1 data-cache bank.

The L1 of the paper consists of four independent, single-ported, 4-way
set-associative banks; consecutive cache lines are interleaved across banks
so that a group of accesses to one page usually spreads over several banks
and can be serviced in the same cycle.

A bank exposes the two access modes of Sec. V:

* ``conventional`` — all four tag arrays and all four data arrays are read in
  parallel and the matching way's data is selected;
* ``reduced`` — the requester already knows the way (from a way table or a
  WDU) so the tag arrays are bypassed and exactly one data array is read.

The bank counts the array-level events (``tag_read``, ``data_read``,
``data_write`` …) that the energy model converts into joules.  Port limits
are the interface models' business: each interface decides which accesses
reach which bank in a cycle, and the energy model takes the port count from
:attr:`repro.sim.config.SimulationConfig.l1_read_ports`.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.cache.set_assoc import SetAssociativeArray
from repro.memory.address import AddressLayout, DEFAULT_LAYOUT
from repro.stats import StatCounters


class CacheBank:
    """One single-ported, set-associative L1 bank.

    Parameters
    ----------
    bank_index:
        Position of this bank in the L1 (0..banks-1); used only for stats
        naming and address reconstruction.
    layout:
        Shared address geometry.
    stats:
        Shared counters; events are prefixed with ``l1.``.
    restrict_way_allocation:
        When True, line fills avoid the "excluded" way of the 2-bit way-table
        encoding (Sec. V) so every resident line is representable by the WT.
    on_evict, on_fill:
        Listeners called as ``listener(line_address, way)``.  A fill that
        displaces a valid line counts ``l1.eviction`` (and ``l1.writeback``
        for a dirty victim) and calls ``on_evict`` with the victim's line
        address; then it counts the fill and calls ``on_fill``.  The L1
        forwards both to the way tables or the WDU, which keep their
        validity bits coherent this way (Sec. V).
    """

    def __init__(
        self,
        bank_index: int,
        layout: AddressLayout = DEFAULT_LAYOUT,
        stats: Optional[StatCounters] = None,
        restrict_way_allocation: bool = False,
        on_evict: Optional[Callable[[int, int], None]] = None,
        on_fill: Optional[Callable[[int, int], None]] = None,
    ) -> None:
        self.bank_index = bank_index
        self.layout = layout
        self.stats = stats if stats is not None else StatCounters()
        self.restrict_way_allocation = restrict_way_allocation
        self._on_evict = on_evict
        self._on_fill = on_fill
        self.array = SetAssociativeArray(
            num_sets=layout.l1_sets_per_bank, ways=layout.l1_associativity
        )
        # Fixed per-access counter patterns, counted with one add_many call.
        ways = layout.l1_associativity
        self._combo_conv_read = (
            ("l1.ctrl", 1),
            ("l1.tag_read", ways),
            ("l1.data_read", ways),
            ("l1.conventional_access", 1),
            ("l1.subblock_pair_read", 1),
        )
        self._combo_reduced_read = (
            ("l1.ctrl", 1),
            ("l1.data_read", 1),
            ("l1.reduced_access", 1),
            ("l1.subblock_pair_read", 1),
        )
        self._combo_conv_write = (
            ("l1.ctrl", 1),
            ("l1.tag_read", ways),
            ("l1.conventional_access", 1),
        )
        self._combo_reduced_write = (
            ("l1.ctrl", 1),
            ("l1.data_write", 1),
            ("l1.reduced_access", 1),
        )
        self._combo_fill = (
            ("l1.ctrl", 1),
            ("l1.fill", 1),
            ("l1.data_write", 1),
            ("l1.tag_write", 1),
        )

    # ------------------------------------------------------------------
    # Address helpers
    # ------------------------------------------------------------------
    def _check_bank(self, physical_address: int) -> None:
        bank_index = self.layout.bank_index(physical_address)
        if bank_index != self.bank_index:
            raise ValueError(
                f"address {physical_address:#x} belongs to bank "
                f"{bank_index}, not {self.bank_index}"
            )

    def _line_address_from(self, set_index: int, tag: int) -> int:
        """Rebuild the line-granular physical address of a stored line."""
        line_number = (
            (tag << (self.layout.bank_bits + self.layout.set_bits))
            | (set_index << self.layout.bank_bits)
            | self.bank_index
        )
        return self.layout.address_of_line(line_number)

    def excluded_way_for(self, physical_address: int) -> Optional[int]:
        """Way that the 2-bit way-table format cannot express for this line.

        Sec. V: lines 0..3 of a page treat way 0 as "unknown", lines 4..7 way
        1, and so on — i.e. the excluded way rotates with the line-in-page
        index divided by the number of banks.
        """
        if not self.restrict_way_allocation:
            return None
        line_in_page = self.layout.line_in_page(physical_address)
        return (line_in_page // self.layout.l1_banks) % self.layout.l1_associativity

    # ------------------------------------------------------------------
    # Accesses
    # ------------------------------------------------------------------
    def read_parts(self, set_index: int, tag: int, way_hint: Optional[int]):
        """Service a load of the line ``tag`` in ``set_index``.

        ``way_hint`` is the way supplied by a way table or WDU; ``None`` means
        unknown and forces a conventional access.  Every read returns two
        adjacent sub-blocks (the MALEC assumption that doubles merge
        opportunities) and counts one ``l1.subblock_pair_read``.  The caller
        has taken set and tag from the address and routed it to this bank.

        Returns ``(hit, way, reduced, way_hint_wrong)``.  ``way_hint_wrong``
        is True when a supplied hint did not match.  Page-Based Way
        Determination guarantees hints are valid-or-unknown, so way tables
        never set it; the ``l1.way_hint_wrong`` counter validates that claim
        and models less precise predictors.
        """
        stats = self.stats
        if way_hint is not None:
            # Reduced access: tag arrays bypassed, single data array read.
            # (Direct slot access: way hints come from way tables/WDU and are
            # in range by construction.)
            array = self.array
            stats.add_many(self._combo_reduced_read)
            if array._tags[set_index * array.ways + way_hint] == tag:
                array.find_way(set_index, tag)  # refresh replacement state
                return True, way_hint, True, False
            # A wrong hint requires a second, conventional access; way tables
            # never produce this (validity is tracked), but WDU-style
            # predictors might.
            stats.add("l1.way_hint_wrong")
            hit, way, reduced, _ = self.read_parts(set_index, tag, None)
            return hit, way, reduced, True

        # Conventional access: all tag arrays and all data arrays probed.
        stats.add_many(self._combo_conv_read)
        way = self.array.find_way(set_index, tag)
        if way is not None:
            return True, way, False, False
        return False, None, False, False

    def write_parts(self, set_index: int, tag: int, way_hint: Optional[int]):
        """Service a store (or merge-buffer eviction) that writes the cache.

        Stores always need to know the correct way before writing; without a
        hint the tag arrays are probed first, with a valid hint the probe is
        skipped (reduced store).  Returns ``(hit, way, reduced)``.
        """
        stats = self.stats
        if way_hint is not None:
            array = self.array
            if array._tags[set_index * array.ways + way_hint] == tag:
                stats.add_many(self._combo_reduced_write)
                array.mark_dirty(set_index, way_hint)
                array.find_way(set_index, tag)
                return True, way_hint, True
            stats.add("l1.way_hint_wrong")

        stats.add_many(self._combo_conv_write)
        way = self.array.find_way(set_index, tag)
        if way is not None:
            stats.add("l1.data_write")
            self.array.mark_dirty(set_index, way)
            return True, way, False
        return False, None, False

    def fill_parts(self, physical_address: int, set_index: int, tag: int, dirty: bool):
        """Install the line ``tag`` of ``set_index`` after a miss.

        ``physical_address`` names the line for the excluded-way rule and the
        fill listener; the class docstring gives the eviction flow.  Returns
        ``(way, evicted_line_address, evicted_dirty)``; the evicted address
        is ``None`` when the fill displaced no valid line.
        """
        way, evicted_tag, evicted_dirty = self.array.fill(
            set_index, tag, dirty=dirty, excluded_way=self.excluded_way_for(physical_address)
        )
        evicted_address: Optional[int] = None
        if evicted_tag is not None:
            evicted_address = self._line_address_from(set_index, evicted_tag)
            self.stats.add("l1.eviction")
            if evicted_dirty:
                self.stats.add("l1.writeback")
            if self._on_evict is not None:
                self._on_evict(evicted_address, way)
        self.stats.add_many(self._combo_fill)
        if self._on_fill is not None:
            self._on_fill(self.layout.line_address(physical_address), way)
        return way, evicted_address, evicted_dirty

    def way_of(self, physical_address: int) -> Optional[int]:
        """Way currently holding ``physical_address`` or ``None``.

        A tag check only: no energy events, no replacement update.  Raises
        ``ValueError`` for an address that belongs to another bank.
        """
        self._check_bank(physical_address)
        layout = self.layout
        set_index = (physical_address >> layout._set_shift) & layout._set_mask
        tag = physical_address >> layout._tag_shift
        return self.array.find_way(set_index, tag, update_replacement=False)

    def contains(self, physical_address: int) -> bool:
        """True if the line holding ``physical_address`` is resident."""
        return self.way_of(physical_address) is not None

    def occupancy(self) -> int:
        """Number of valid lines in this bank."""
        return self.array.occupancy()
