"""MALEC: the Multiple Access Low Energy Cache interface (Sec. IV and V).

The interface deliberately restricts the L1 data subsystem to one *page* per
cycle, which allows every structure (uTLB, TLB, cache banks) to stay
single-ported.  Performance is recovered by:

* sharing the single address translation of a cycle among every access to
  that page (the Input Buffer groups them),
* distributing the group across the four independent cache banks and merging
  loads that touch the same cache line / sub-block pair (Arbitration Unit),
* letting a group contain up to four loads plus one evicted merge-buffer
  entry per cycle (bounded by the four result buses).

Energy is further reduced by Page-Based Way Determination: the way-table
entry returned alongside the translation supplies a validated way for most
lines, so the corresponding bank accesses bypass the tag arrays and read a
single data array ("reduced access").  A line-based WDU can be substituted
for the way tables to reproduce the comparison of Sec. VI-C, or way
determination can be disabled entirely.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional

from repro.core.arbitration import ArbitrationUnit
from repro.core.input_buffer import InputBuffer
from repro.core.way_table import WayTableHierarchy
from repro.core.wdu import WayDeterminationUnit
from repro.interfaces.base import (
    BaseL1Interface,
    CompletedAccess,
    PendingWriteback,
)
from repro.memory.hierarchy import MemoryHierarchy
from repro.stats import StatCounters
from repro.tlb.tlb import TLBHierarchy

#: way-determination schemes supported by the MALEC interface
WAY_DETERMINATION_SCHEMES = ("wt", "wdu", "none")


class MalecInterface(BaseL1Interface):
    """Page-grouped, way-determined L1 interface (the paper's proposal)."""

    name = "MALEC"
    #: one dedicated load slot plus two load/store slots (Table I): at most
    #: three loads enter the Input Buffer per cycle
    load_slots = 1
    store_slots = 0
    flexible_slots = 2
    # Way-prediction accounting patterns, one per bank access.
    _combo_way_unknown = (("malec.way_lookup", 1),)
    _combo_way_known = (("malec.way_lookup", 1), ("malec.way_known", 1))
    _combo_way_reduced = (
        ("malec.way_lookup", 1),
        ("malec.way_known", 1),
        ("malec.reduced_access", 1),
    )

    def __init__(
        self,
        hierarchy: MemoryHierarchy,
        translation: TLBHierarchy,
        stats: Optional[StatCounters] = None,
        way_determination: str = "wt",
        wdu_entries: int = 16,
        enable_feedback_update: bool = True,
        merge_granularity: str = "subblock_pair",
        result_buses: int = 4,
        input_buffer_capacity: int = 2,
        merge_window: int = 3,
        **kwargs,
    ) -> None:
        super().__init__(hierarchy, translation, stats=stats, **kwargs)
        if way_determination not in WAY_DETERMINATION_SCHEMES:
            raise ValueError(
                f"way_determination {way_determination!r} not in {WAY_DETERMINATION_SCHEMES}"
            )
        self.way_determination = way_determination
        self.input_buffer = InputBuffer(
            held_capacity=input_buffer_capacity, layout=self.layout, stats=self.stats
        )
        self.arbitration = ArbitrationUnit(
            layout=self.layout,
            result_buses=result_buses,
            merge_window=merge_window,
            merge_granularity=merge_granularity,
            stats=self.stats,
        )
        self.way_tables: Optional[WayTableHierarchy] = None
        self.wdu: Optional[WayDeterminationUnit] = None
        if way_determination == "wt":
            self.way_tables = WayTableHierarchy(
                translation,
                layout=self.layout,
                stats=self.stats,
                enable_feedback_update=enable_feedback_update,
            )
            self.way_tables.attach_to_cache(hierarchy.l1)
        elif way_determination == "wdu":
            self.wdu = WayDeterminationUnit(
                entries=wdu_entries, layout=self.layout, stats=self.stats
            )
            self.wdu.attach_to_cache(hierarchy.l1)
        #: line addresses of MBEs waiting for the Input Buffer's single MBE slot
        self._mbe_backlog: Deque[int] = deque()

    # ------------------------------------------------------------------
    # Back-pressure and queuing
    # ------------------------------------------------------------------
    def can_accept_load(self) -> bool:
        """True when the load queue and the Input Buffer can take a load.

        Address computation stalls while the Input Buffer's held storage is
        full (Sec. IV).  Arrivals need no check of their own: the three
        address-computation slots admit at most three loads per cycle.
        """
        lq = self.load_queue
        if len(lq._entries) >= lq.entries:
            return False
        ib = self.input_buffer
        return len(ib._held) < ib.held_capacity + 1

    def _loads_quiescent(self) -> bool:
        # An empty-interface tick is a pure no-op (see _service_cycle), so
        # the event-driven pipeline may skip ticking a quiescent MALEC
        # entirely — mid-run or across a fast-forwarded stall — with every
        # statistic staying bit-identical.
        return self.input_buffer.empty and not self._mbe_backlog

    def _enqueue_load(self, tag, address, size) -> None:
        self.input_buffer.add_load(tag, self.layout.check(address), size)

    def _queue_writeback(self, line_address: int) -> None:
        # Unlike the baselines, evicted MBEs travel through the Input Buffer
        # so their cache write can share a page group's translation.
        self._mbe_backlog.append(line_address)
        self.stats.add("interface.mbe_queued")

    # ------------------------------------------------------------------
    # Per-cycle servicing
    # ------------------------------------------------------------------
    def _service_cycle(self, cycle: int) -> List[CompletedAccess]:
        completions: List[CompletedAccess] = []
        input_buffer = self.input_buffer
        backlog = self._mbe_backlog
        if not backlog and input_buffer.empty:
            # Nothing waiting anywhere: a true no-op.  (end_cycle() on an
            # empty buffer would only add zero to the held-loads counter;
            # not calling it keeps the quiescent tick side-effect free, which
            # is what lets the event-driven pipeline skip it altogether.)
            return completions
        if backlog and input_buffer.can_accept_mbe():
            input_buffer.add_mbe(backlog.popleft())
        page, loads, mbe = input_buffer.select_group()

        # One translation per cycle, shared by the whole page group.
        physical_page, translation_latency = self.translation.translate_page_pair(page)
        way_entry = None
        if self.way_tables is not None:
            way_entry = self.way_tables.predict_page(page)

        bank_requests, serviced, mbe_granted, mbe_hint = self.arbitration.arbitrate(
            loads, mbe, way_entry
        )
        loads_granted = len(serviced)

        if loads_granted:
            # The split SB/MB lookup structures compare the shared page id
            # once per cycle; the narrow offset segments are charged per load.
            self.store_buffer.charge_shared_page_lookup()
            self.merge_buffer.charge_shared_page_lookup()

        frame = physical_page << self.layout.page_offset_bits
        for bank_request in bank_requests:
            completions.extend(
                self._service_bank_request(bank_request, frame, translation_latency, cycle)
            )
        if mbe_granted:
            # The MBE's write, the last bank access: no result bus needed.
            physical_address = frame | (mbe & self.layout._page_offset_mask)
            way_hint = self._wdu_hint(physical_address, mbe_hint)
            reduced = self.hierarchy.l1.store_parts(physical_address, way_hint=way_hint)[3]
            self.stats.add("interface.mbe_written")
            self._account_way_prediction(way_hint, reduced)

        input_buffer.retire(serviced, mbe_granted)
        input_buffer.end_cycle()
        self.stats.add("malec.group_cycles")
        self.stats.add("malec.group_loads", loads_granted)
        return completions

    def _wdu_hint(self, physical_address: int, way_hint: Optional[int]) -> Optional[int]:
        """The WDU's way for ``physical_address`` when it knows one, else ``way_hint``."""
        if self.wdu is not None:
            way = self.wdu.predict(physical_address)
            if way is not None:
                return way
        return way_hint

    def _service_bank_request(
        self,
        bank_request: list,
        frame: int,
        translation_latency: int,
        cycle: int,
    ) -> List[CompletedAccess]:
        """Perform one load bank access and return completions of its loads.

        ``bank_request`` is ``[primary load, merged loads, way hint]`` and
        ``frame`` the group's physical page shifted into place.
        """
        (tag, address, size), merged, way_hint = bank_request
        physical_address = frame | (address & self.layout._page_offset_mask)
        way_hint = self._wdu_hint(physical_address, way_hint)

        # Every serviced load (primary + merged) searches SB/MB with the
        # split structures and shares the single bank access.
        self._forwarding_lookups(address, size, split=True)
        for _tag, merged_address, merged_size in merged:
            self._forwarding_lookups(merged_address, merged_size, split=True)

        hit, way, latency, reduced, _, _ = self.hierarchy.l1.load_parts(
            physical_address, way_hint=way_hint
        )
        self.stats.add("interface.load_accesses")
        self.stats.add("interface.loads_merged", len(merged))
        self._account_way_prediction(way_hint, reduced)

        if way_hint is None and hit:
            # Feedback path: conventional access hit although the prediction
            # was unknown — update the uWT via the last-entry register, or
            # train the WDU.
            if self.way_tables is not None:
                self.way_tables.feedback_conventional_hit(physical_address, way)
            if self.wdu is not None and way is not None:
                self.wdu.record(physical_address, way)

        ready = cycle + translation_latency + latency
        return [(tag, ready)] + [(merged_tag, ready) for merged_tag, _, _ in merged]

    def _account_way_prediction(self, way_hint: Optional[int], reduced: bool) -> None:
        """Coverage bookkeeping: each bank access is one prediction opportunity."""
        if self.way_determination == "none":
            return
        if way_hint is None:
            self.stats.add_many(self._combo_way_unknown)
        elif reduced:
            self.stats.add_many(self._combo_way_reduced)
        else:
            self.stats.add_many(self._combo_way_known)

    # ------------------------------------------------------------------
    # Reporting helpers
    # ------------------------------------------------------------------
    @property
    def way_coverage(self) -> float:
        """Fraction of L1 accesses serviced with a known, valid way."""
        return self.stats.ratio("malec.way_known", "malec.way_lookup")

    @property
    def merged_load_fraction(self) -> float:
        """Fraction of serviced loads that shared another load's bank access."""
        merged = self.stats.get("interface.loads_merged")
        accesses = self.stats.get("interface.load_accesses")
        total = merged + accesses
        return merged / total if total else 0.0

    def finalize(self, cycle: int) -> None:
        """Drain the Input Buffer's MBE backlog in addition to the base drain."""
        # An MBE may still sit in the Input Buffer's single MBE slot.
        waiting = self.input_buffer.take_mbe()
        if waiting is not None:
            self._pending_writebacks.append(PendingWriteback(waiting))
        # Convert backlogged MBEs into ordinary write-backs first.
        while self._mbe_backlog:
            self._pending_writebacks.append(PendingWriteback(self._mbe_backlog.popleft()))
        # Any loads still sitting in the Input Buffer have already been
        # reported complete or the pipeline would not have committed them;
        # by construction the buffer is empty of loads here.
        super().finalize(cycle)
        # The base drain routes freshly evicted MBEs back through our
        # overridden _queue_writeback (i.e. into the backlog); flush them too.
        while self._mbe_backlog:
            self._writeback_to_cache(PendingWriteback(self._mbe_backlog.popleft()))
