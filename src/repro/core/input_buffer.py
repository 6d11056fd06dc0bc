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
storage would overflow, address computation stalls (modelled through
:meth:`InputBuffer.can_accept_load`).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Tuple

from repro.core.request import MemoryAccessRequest
from repro.stats import StatCounters


class InputBuffer:
    """Priority buffer grouping pending accesses by virtual page.

    Parameters
    ----------
    held_capacity:
        Storage for loads left over from previous cycles.  The evaluated
        MALEC configuration uses storage for two loads (Sec. VI-A); the
        scalable design of Fig. 2a allows three.
    new_loads_per_cycle:
        Maximum number of loads arriving from address computation per cycle.
    """

    def __init__(
        self,
        held_capacity: int = 2,
        new_loads_per_cycle: int = 4,
        stats: Optional[StatCounters] = None,
    ) -> None:
        if held_capacity < 0:
            raise ValueError("held capacity cannot be negative")
        if new_loads_per_cycle <= 0:
            raise ValueError("at least one new load per cycle must be possible")
        self.held_capacity = held_capacity
        self.new_loads_per_cycle = new_loads_per_cycle
        self.stats = stats if stats is not None else StatCounters()
        self._held: Deque[MemoryAccessRequest] = deque()
        self._new: List[MemoryAccessRequest] = []
        self._mbe: Optional[MemoryAccessRequest] = None
        # Per-cycle counters resolved to integer slots once (hot path).
        self._h_load_in = self.stats.handle("input_buffer.load_in")
        self._h_mbe_in = self.stats.handle("input_buffer.mbe_in")
        self._h_page_compare = self.stats.handle("input_buffer.page_compare")
        self._h_group_selected = self.stats.handle("input_buffer.group_selected")
        self._h_group_size = self.stats.handle("input_buffer.group_size")
        self._h_overflow_cycle = self.stats.handle("input_buffer.overflow_cycle")
        self._h_held_loads = self.stats.handle("input_buffer.held_loads")
        self._h_mbe_out = self.stats.handle("input_buffer.mbe_out")

    # ------------------------------------------------------------------
    # Occupancy and back-pressure
    # ------------------------------------------------------------------
    def can_accept_load(self) -> bool:
        """True when another load may be submitted this cycle.

        Address computation must stall when the buffer's storage would be
        insufficient to hold unserviced loads (Sec. IV), which is the case
        when the held storage is already full or this cycle's arrival slots
        are exhausted.
        """
        if len(self._new) >= self.new_loads_per_cycle:
            return False
        return len(self._held) < self.held_capacity + 1

    def can_accept_mbe(self) -> bool:
        """True when the single MBE slot is free."""
        return self._mbe is None

    # ------------------------------------------------------------------
    # Submissions
    # ------------------------------------------------------------------
    def add_load(self, request: MemoryAccessRequest) -> None:
        """Submit a load that finished address computation this cycle."""
        if not request.is_load:
            raise ValueError("add_load expects a load request")
        if len(self._new) >= self.new_loads_per_cycle:
            raise RuntimeError("too many loads submitted this cycle")
        self._new.append(request)
        self.stats.bump(self._h_load_in)

    def add_mbe(self, request: MemoryAccessRequest) -> None:
        """Submit an evicted merge-buffer entry."""
        if not request.is_mbe:
            raise ValueError("add_mbe expects a merge-buffer entry")
        if self._mbe is not None:
            raise RuntimeError("the MBE slot is already occupied")
        self._mbe = request
        self.stats.bump(self._h_mbe_in)

    # ------------------------------------------------------------------
    # Page-group selection
    # ------------------------------------------------------------------
    def select_group(self) -> Optional[Tuple[int, List[MemoryAccessRequest]]]:
        """Identify this cycle's page group as ``(page, members)``.

        The highest-priority entry becomes the leader; its virtual page id is
        what the interface sends to the uTLB, translated once for the whole
        group.  Every other currently valid entry is compared against that
        page id (one narrow comparator per entry — counted for completeness
        even though the paper deems the energy negligible) and matching
        entries join the group.  ``members`` is in priority order, so the
        leader comes first and a matching MBE last.

        Returns ``None`` when nothing is waiting.
        """
        held = self._held
        new = self._new
        mbe = self._mbe
        if held:
            leader = held[0]
        elif new:
            leader = new[0]
        elif mbe is not None:
            leader = mbe
        else:
            return None
        page = leader.virtual_page
        members = []
        stats = self.stats
        compares = -1  # the leader compares against nobody
        for source in (held, new, (mbe,) if mbe is not None else ()):
            for request in source:
                compares += 1
                if request.virtual_page == page:
                    members.append(request)
        if compares:  # integer sum: one bump of n is bit-identical to n bumps
            stats.bump(self._h_page_compare, compares)
        stats.bump(self._h_group_selected)
        stats.bump(self._h_group_size, len(members))
        return page, members

    # ------------------------------------------------------------------
    # End-of-cycle bookkeeping
    # ------------------------------------------------------------------
    def retire(self, serviced: List[MemoryAccessRequest]) -> None:
        """Remove requests that were serviced (sent to the cache) this cycle.

        Requests are matched by identity (they define no equality), so a
        waiting request with the same fields as a serviced one stays.
        """
        gone = set(serviced)
        self._held = deque(request for request in self._held if request not in gone)
        self._new = [request for request in self._new if request not in gone]
        if self._mbe is not None and self._mbe in gone:
            self._mbe = None
            self.stats.bump(self._h_mbe_out)

    def end_cycle(self) -> int:
        """Carry unserviced loads over to the next cycle.

        Returns the number of loads now held; the caller may use it to model
        address-computation stalls (via :meth:`can_accept_load`).
        """
        if self._new:
            self._held.extend(self._new)
            self._new = []
        held = len(self._held)
        if held > self.held_capacity:
            self.stats.bump(self._h_overflow_cycle)
        self.stats.bump(self._h_held_loads, held)
        return held

    def take_mbe(self) -> Optional[MemoryAccessRequest]:
        """Remove and return the waiting MBE, if any (end-of-run drain)."""
        mbe = self._mbe
        self._mbe = None
        return mbe

    @property
    def empty(self) -> bool:
        """True when no loads and no MBE are waiting."""
        return not self._held and not self._new and self._mbe is None
