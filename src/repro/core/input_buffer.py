"""Input Buffer: Page-Based Memory Access Grouping (Sec. IV).

The Input Buffer receives loads that finished address computation and merge
buffer entries (MBEs) evicted towards the cache, prioritizes them and
identifies, each cycle, the group of entries that access the same virtual
page.  Only that group proceeds: its page id is translated once (a single
uTLB/TLB access) and the result is shared by every member.

Priorities, from high to low (Sec. IV):

1. loads held from previous cycles (oldest first),
2. loads finishing address computation this cycle (program order),
3. one evicted MBE (not time critical, its stores already committed).

Unmatched loads — and loads rejected by the Arbitration Unit because of bank
conflicts or result-bus limits — are held for the next cycle.  If the held
storage would overflow, address computation stalls; that back-pressure, and
the cap of three arrivals per cycle set by the address-computation slots,
live in :meth:`repro.interfaces.malec.MalecInterface.can_accept_load`.

Each load is held as a ``(tag, address, size)`` tuple, the shape of the
baselines' pending loads, and the MBE slot holds the MBE's virtual line
address.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, List, Optional, Tuple

from repro.memory.address import AddressLayout, DEFAULT_LAYOUT
from repro.stats import StatCounters

#: one waiting load: (tag, virtual_address, size)
Load = Tuple[Any, int, int]


class InputBuffer:
    """Priority buffer grouping pending accesses by virtual page.

    Parameters
    ----------
    held_capacity:
        Storage for loads left over from previous cycles.  The evaluated
        MALEC configuration uses storage for two loads (Sec. VI-A); the
        scalable design of Fig. 2a allows three.
    """

    def __init__(
        self,
        held_capacity: int = 2,
        layout: AddressLayout = DEFAULT_LAYOUT,
        stats: Optional[StatCounters] = None,
    ) -> None:
        if held_capacity < 0:
            raise ValueError("held capacity cannot be negative")
        self.held_capacity = held_capacity
        self.layout = layout
        self.stats = stats if stats is not None else StatCounters()
        self._held: Deque[Load] = deque()
        self._new: List[Load] = []
        self._mbe: Optional[int] = None

    # ------------------------------------------------------------------
    # Occupancy
    # ------------------------------------------------------------------
    def can_accept_mbe(self) -> bool:
        """True when the single MBE slot is free."""
        return self._mbe is None

    # ------------------------------------------------------------------
    # Submissions
    # ------------------------------------------------------------------
    def add_load(self, tag: Any, address: int, size: int) -> None:
        """Submit a load that finished address computation this cycle."""
        self._new.append((tag, address, size))
        self.stats.add("input_buffer.load_in")

    def add_mbe(self, line_address: int) -> None:
        """Submit the virtual line address of an evicted merge-buffer entry."""
        if self._mbe is not None:
            raise RuntimeError("the MBE slot is already occupied")
        self._mbe = line_address
        self.stats.add("input_buffer.mbe_in")

    # ------------------------------------------------------------------
    # Page-group selection
    # ------------------------------------------------------------------
    def select_group(self) -> Optional[Tuple[int, List[Load], Optional[int]]]:
        """Identify this cycle's page group as ``(page, loads, mbe)``.

        The highest-priority entry becomes the leader; its virtual page id is
        what the interface sends to the uTLB, translated once for the whole
        group.  Every other currently valid entry is compared against that
        page id (one narrow comparator per entry — counted for completeness
        even though the paper deems the energy negligible) and matching
        entries join the group.  ``loads`` are the leader page's loads in
        priority order; ``mbe`` is the MBE's line address when it joins the
        group, else ``None``.

        Returns ``None`` when nothing is waiting.
        """
        held = self._held
        new = self._new
        mbe = self._mbe
        shift = self.layout.page_offset_bits
        if held:
            page = held[0][1] >> shift
        elif new:
            page = new[0][1] >> shift
        elif mbe is not None:
            page = mbe >> shift
        else:
            return None
        loads = [load for source in (held, new) for load in source if load[1] >> shift == page]
        compares = len(held) + len(new) - 1  # the leader compares against nobody
        if mbe is not None:
            compares += 1
            if mbe >> shift != page:
                mbe = None
        stats = self.stats
        if compares:  # integer sum: one add of n is bit-identical to n adds
            stats.add("input_buffer.page_compare", compares)
        stats.add("input_buffer.group_selected")
        stats.add("input_buffer.group_size", len(loads) + (mbe is not None))
        return page, loads, mbe

    # ------------------------------------------------------------------
    # End-of-cycle bookkeeping
    # ------------------------------------------------------------------
    def retire(self, serviced: List[Load], mbe_serviced: bool) -> None:
        """Remove the loads (and the MBE) serviced this cycle.

        Loads are matched by equality: their tags are unique within a run.
        """
        gone = set(serviced)
        self._held = deque(load for load in self._held if load not in gone)
        self._new = [load for load in self._new if load not in gone]
        if mbe_serviced:
            self._mbe = None
            self.stats.add("input_buffer.mbe_out")

    def end_cycle(self) -> int:
        """Carry unserviced loads over to the next cycle.

        Returns the number of loads now held.
        """
        if self._new:
            self._held.extend(self._new)
            self._new = []
        held = len(self._held)
        if held > self.held_capacity:
            self.stats.add("input_buffer.overflow_cycle")
        self.stats.add("input_buffer.held_loads", held)
        return held

    def take_mbe(self) -> Optional[int]:
        """Remove and return the waiting MBE's line address, if any
        (end-of-run drain)."""
        mbe = self._mbe
        self._mbe = None
        return mbe

    @property
    def empty(self) -> bool:
        """True when no loads and no MBE are waiting."""
        return not self._held and not self._new and self._mbe is None
