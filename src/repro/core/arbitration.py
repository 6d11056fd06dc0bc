"""Arbitration Unit: bank selection, load merging and way assignment (Sec. IV).

Given the members of the page group selected by the Input Buffer, the
Arbitration Unit decides which accesses actually reach the L1 this cycle:

* for every cache bank it picks the highest-priority access mapping to it
  (the banks are single-ported, so one access per bank per cycle);
* loads to the *same cache line* as an already selected load are merged with
  it — they share the data returned by one bank access.  Only the loads
  consecutive to the initial Input Buffer entry take part in these
  comparisons (a window of three in the paper; the resulting performance loss
  is below 0.5 %).  The comparators are narrow because the page id is already
  known to match (``address_bits - page_id_bits - line_offset_bits``);
* at most ``result_buses`` loads can be serviced per cycle (four in the
  evaluated configuration); lower-priority loads are rejected and stay in the
  Input Buffer;
* way information from the page's way-table entry is attached to every
  selected bank access so the banks can perform reduced (tag-bypassed)
  accesses.

With sub-blocked data arrays MALEC expects each read to return two adjacent
sub-blocks, so two loads can share an access when they fall into the same
aligned sub-block pair; merging at full line granularity or single sub-block
granularity is available for ablations.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.request import MemoryAccessRequest
from repro.memory.address import AddressLayout, DEFAULT_LAYOUT
from repro.stats import StatCounters

#: Merge granularities supported by :class:`ArbitrationUnit`.
MERGE_GRANULARITIES = ("line", "subblock_pair", "subblock", "none")


class BankRequest:
    """One access issued to a cache bank this cycle (slotted: one per access).

    ``primary`` is the request that drives the access (its ``bank_index``
    names the bank); ``merged`` lists loads that share its returned data.
    ``way_hint`` is the way supplied by the page's way-table entry (``None``
    = unknown, conventional access).
    """

    __slots__ = ("primary", "merged", "is_write", "way_hint")

    def __init__(self, primary: MemoryAccessRequest, is_write: bool = False) -> None:
        self.primary = primary
        self.merged: List[MemoryAccessRequest] = []
        self.is_write = is_write
        self.way_hint: Optional[int] = None


class ArbitrationUnit:
    """Selects the accesses that reach the cache banks each cycle."""

    def __init__(
        self,
        layout: AddressLayout = DEFAULT_LAYOUT,
        result_buses: int = 4,
        merge_window: int = 3,
        merge_granularity: str = "subblock_pair",
        stats: Optional[StatCounters] = None,
    ) -> None:
        if result_buses <= 0:
            raise ValueError("at least one result bus is required")
        if merge_window < 0:
            raise ValueError("merge window cannot be negative")
        if merge_granularity not in MERGE_GRANULARITIES:
            raise ValueError(
                f"merge granularity {merge_granularity!r} not in {MERGE_GRANULARITIES}"
            )
        self.layout = layout
        self.result_buses = result_buses
        self.merge_window = merge_window
        self.merge_granularity = merge_granularity
        self.stats = stats if stats is not None else StatCounters()
        # Per-cycle counters resolved to integer slots once (hot path).
        self._h_mbe_bank_conflict = self.stats.handle("arb.mbe_bank_conflict")
        self._h_line_compare = self.stats.handle("arb.line_compare")
        self._h_merged_load = self.stats.handle("arb.merged_load")
        self._h_rejected_result_bus = self.stats.handle("arb.rejected_result_bus")
        self._h_rejected_bank_conflict = self.stats.handle("arb.rejected_bank_conflict")
        self._h_granted_load = self.stats.handle("arb.granted_load")
        self._h_way_hint_assigned = self.stats.handle("arb.way_hint_assigned")
        self._h_cycles = self.stats.handle("arb.cycles")
        self._h_bank_accesses = self.stats.handle("arb.bank_accesses")

    # ------------------------------------------------------------------
    def _can_merge(self, a: MemoryAccessRequest, b: MemoryAccessRequest) -> bool:
        """True when two loads can share one bank access."""
        if self.merge_granularity == "none":
            return False
        if self.merge_granularity == "line":
            return a.same_line_as(b)
        if self.merge_granularity == "subblock_pair":
            return a.same_subblock_pair_as(b)
        # Single sub-block granularity.
        return a.same_line_as(b) and (
            self.layout.subblock_in_line(a.virtual_address)
            == self.layout.subblock_in_line(b.virtual_address)
        )

    def arbitrate(
        self,
        members: List[MemoryAccessRequest],
        way_entry: Optional[Tuple[bytearray, int]] = None,
    ) -> Tuple[List[BankRequest], List[MemoryAccessRequest], int]:
        """Distribute a page group over the banks.

        Parameters
        ----------
        members:
            The group's requests in priority order, as returned by
            :meth:`repro.core.input_buffer.InputBuffer.select_group`.
        way_entry:
            The ``(codes, offset)`` pair of the uWT entry covering the
            group's page, as :meth:`repro.core.way_table.WayTableHierarchy.predict_page`
            returns it (``None`` when way determination is disabled); used
            to attach way hints.

        Returns ``(bank_requests, serviced, loads_granted)``: the accesses
        issued to the banks, every request they service (primaries and
        merged loads; the members left out stay in the Input Buffer), and
        the number of serviced loads.
        """
        bank_requests: List[BankRequest] = []
        serviced: List[MemoryAccessRequest] = []
        bank_owner: Dict[int, BankRequest] = {}
        loads_granted = 0

        for position, request in enumerate(members):
            bank = request.bank_index

            if request.is_mbe:
                # The MBE writes the cache; it needs its bank but no result bus.
                if bank in bank_owner:
                    self.stats.bump(self._h_mbe_bank_conflict)
                    continue
                bank_request = BankRequest(request, is_write=True)
                bank_owner[bank] = bank_request
                bank_requests.append(bank_request)
                serviced.append(request)
                continue

            # ----------------------------------------------------------
            # Loads: try merging with an already granted access first.
            # ----------------------------------------------------------
            merged = False
            if position <= self.merge_window and self.merge_granularity != "none":
                for bank_request in bank_owner.values():
                    if bank_request.is_write:
                        continue
                    self.stats.bump(self._h_line_compare)
                    if self._can_merge(bank_request.primary, request):
                        if loads_granted >= self.result_buses:
                            break
                        bank_request.merged.append(request)
                        serviced.append(request)
                        loads_granted += 1
                        merged = True
                        self.stats.bump(self._h_merged_load)
                        break
            if merged:
                continue

            if loads_granted >= self.result_buses:
                self.stats.bump(self._h_rejected_result_bus)
                continue

            if bank in bank_owner:
                self.stats.bump(self._h_rejected_bank_conflict)
                continue

            bank_request = BankRequest(request)
            bank_owner[bank] = bank_request
            bank_requests.append(bank_request)
            serviced.append(request)
            loads_granted += 1
            self.stats.bump(self._h_granted_load)

        self._assign_way_hints(bank_requests, way_entry)
        self.stats.bump(self._h_cycles)
        self.stats.bump(self._h_bank_accesses, len(bank_requests))
        return bank_requests, serviced, loads_granted

    # ------------------------------------------------------------------
    def _assign_way_hints(
        self,
        bank_requests: List[BankRequest],
        way_entry: Optional[Tuple[bytearray, int]],
    ) -> None:
        """Attach way-table information to every selected bank access.

        The energy to evaluate the WT entry is independent of the number of
        accesses serviced (at most one way per bank is needed), which is what
        makes the scheme scalable (Sec. V); the entry read itself was already
        accounted for when the page was translated.
        """
        if way_entry is None:
            return
        codes, offset = way_entry
        for bank_request in bank_requests:
            code = codes[offset + bank_request.primary.line_in_page]
            if code:
                bank_request.way_hint = code - 1
                self.stats.bump(self._h_way_hint_assigned)
