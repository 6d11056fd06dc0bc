"""Arbitration Unit: bank selection, load merging and way assignment (Sec. IV).

Given the page group selected by the Input Buffer, the Arbitration Unit
decides which accesses actually reach the L1 this cycle:

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
* the group's MBE, arbitrated after the loads, takes its bank when no load
  holds it (it needs no result bus);
* way information from the page's way-table entry is attached to every
  selected bank access so the banks can perform reduced (tag-bypassed)
  accesses.

With sub-blocked data arrays MALEC expects each read to return two adjacent
sub-blocks, so two loads can share an access when they fall into the same
aligned sub-block pair; merging at full line granularity or single sub-block
granularity is available for ablations.  Either way two loads merge when
their addresses agree above one shift.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.memory.address import AddressLayout, DEFAULT_LAYOUT
from repro.stats import StatCounters

#: Merge granularities supported by :class:`ArbitrationUnit`.
MERGE_GRANULARITIES = ("line", "subblock_pair", "subblock", "none")


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
        #: two loads merge when their addresses agree above this shift
        self._merge_shift = {
            "line": layout.line_offset_bits,
            "subblock": layout._subblock_shift,
            "subblock_pair": min(layout._subblock_shift + 1, layout.line_offset_bits),
            "none": None,
        }[merge_granularity]
        self.stats = stats if stats is not None else StatCounters()

    def arbitrate(
        self,
        loads: List[tuple],
        mbe: Optional[int] = None,
        way_entry: Optional[Tuple[bytearray, int]] = None,
    ) -> Tuple[List[list], List[tuple], bool, Optional[int]]:
        """Distribute a page group over the banks.

        Parameters
        ----------
        loads:
            The group's ``(tag, address, size)`` loads in priority order, as
            :meth:`repro.core.input_buffer.InputBuffer.select_group` returns
            them.
        mbe:
            The line address of the group's MBE, or ``None``.
        way_entry:
            The ``(codes, offset)`` pair of the uWT entry covering the
            group's page, as :meth:`repro.core.way_table.WayTableHierarchy.predict_page`
            returns it (``None`` when way determination is disabled); used
            to attach way hints.

        Returns ``(bank_requests, serviced, mbe_granted, mbe_hint)``.  A bank
        request is a ``[primary load, merged loads, way hint]`` list (hint
        ``None`` = unknown, conventional access); ``serviced`` lists every
        load the requests service (the loads left out stay in the Input
        Buffer); ``mbe_hint`` is the way hint of a granted MBE's write.
        """
        stats = self.stats
        line_bits = self.layout.line_offset_bits
        bank_mask = self.layout._bank_mask
        merge_shift = self._merge_shift
        window = self.merge_window if merge_shift is not None else -1
        result_buses = self.result_buses
        bank_requests: List[list] = []
        serviced: List[tuple] = []
        bank_owner = {}

        for position, load in enumerate(loads):
            address = load[1]
            if position <= window:
                # Try merging with an already granted access first.
                key = address >> merge_shift
                merged = False
                for owner in bank_owner.values():
                    stats.add("arb.line_compare")
                    if owner[0][1] >> merge_shift == key:
                        if len(serviced) >= result_buses:
                            break
                        owner[1].append(load)
                        serviced.append(load)
                        merged = True
                        stats.add("arb.merged_load")
                        break
                if merged:
                    continue
            if len(serviced) >= result_buses:
                stats.add("arb.rejected_result_bus")
                continue
            bank = (address >> line_bits) & bank_mask
            if bank in bank_owner:
                stats.add("arb.rejected_bank_conflict")
                continue
            bank_request = [load, [], None]
            bank_owner[bank] = bank_request
            bank_requests.append(bank_request)
            serviced.append(load)
            stats.add("arb.granted_load")

        mbe_granted = False
        if mbe is not None:
            if ((mbe >> line_bits) & bank_mask) in bank_owner:
                stats.add("arb.mbe_bank_conflict")
            else:
                mbe_granted = True

        # The energy to evaluate the WT entry is independent of the number
        # of accesses serviced (at most one way per bank is needed), which
        # is what makes the scheme scalable (Sec. V); the entry read itself
        # was already accounted for when the page was translated.
        mbe_hint = None
        if way_entry is not None:
            codes, offset = way_entry
            line_mask = self.layout._line_in_page_mask
            for bank_request in bank_requests:
                code = codes[offset + ((bank_request[0][1] >> line_bits) & line_mask)]
                if code:
                    bank_request[2] = code - 1
                    stats.add("arb.way_hint_assigned")
            if mbe_granted:
                code = codes[offset + ((mbe >> line_bits) & line_mask)]
                if code:
                    mbe_hint = code - 1
                    stats.add("arb.way_hint_assigned")
        stats.add("arb.cycles")
        stats.add("arb.bank_accesses", len(bank_requests) + mbe_granted)
        return bank_requests, serviced, mbe_granted, mbe_hint
