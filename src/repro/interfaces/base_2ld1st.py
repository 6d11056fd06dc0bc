"""Base2ld1st: the performance-oriented multi-ported baseline (Table I).

Up to two loads and one store finish address computation per cycle.  The
uTLB/TLB provides one read/write plus two read ports so every access is
translated in its own cycle, and each L1 bank carries one read/write plus one
read port, so per cycle a bank can service up to two reads or one read and
one write.  This mirrors the hybrid of banking and physical multi-porting
used by Sandy Bridge / Bulldozer class cores (Sec. II); the extra ports are
exactly what drives its higher dynamic and leakage energy in Fig. 4b.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.cache.l1_cache import L1DataCache
from repro.interfaces.base import BaseL1Interface, CompletedAccess
from repro.stats import StatCounters
from repro.tlb.tlb import TLBHierarchy


class BaselineDualLoadInterface(BaseL1Interface):
    """Two loads plus one store per cycle via physical multi-porting.

    A bank takes :attr:`_MAX_ACCESSES_PER_BANK` accesses per cycle, one of
    them a write.  At most :attr:`loads_per_cycle` (two) loads are serviced
    per cycle, so the loads always find a free port; the merge-buffer
    write-back waits for the next cycle when both loads used its bank.
    """

    name = "Base2ld1st"
    #: loads serviced per cycle, one per load address-computation slot
    loads_per_cycle = 2
    load_slots = 2
    store_slots = 1
    flexible_slots = 0
    #: per-cycle accesses of a dual-ported bank
    _MAX_ACCESSES_PER_BANK = 2

    def __init__(
        self,
        l1: L1DataCache,
        translation: TLBHierarchy,
        stats: Optional[StatCounters] = None,
        **kwargs,
    ) -> None:
        super().__init__(l1, translation, stats=stats, **kwargs)
        #: (tag, address, size) of loads waiting for a read port
        self._pending_loads: Deque[Tuple[Any, int, int]] = deque()

    # ------------------------------------------------------------------
    def can_accept_load(self) -> bool:
        lq = self.load_queue
        return (
            len(lq._entries) < lq.entries
            and len(self._pending_loads) < 2 * self.loads_per_cycle
        )

    def _enqueue_load(self, tag, address, size) -> None:
        self._pending_loads.append((tag, address, size))

    def _loads_quiescent(self) -> bool:
        return not self._pending_loads

    def _on_store_submitted(self, address: int, size: int, cycle: int) -> None:
        # Each memory reference is translated individually through one of the
        # three TLB ports.
        self.translation.translate_pair(address)

    # ------------------------------------------------------------------
    def _service_cycle(self, cycle: int) -> List[CompletedAccess]:
        """Service up to two loads and one write-back, within bank port limits."""
        completions: List[CompletedAccess] = []
        pending_loads = self._pending_loads
        if not pending_loads and not self._pending_writebacks:
            return completions
        bank_accesses: Dict[int, int] = {}
        stats = self.stats
        bank_index = self.layout.bank_index
        translate_pair = self.translation.translate_pair
        load_parts = self.l1.load_parts

        # Demand loads: oldest first, up to the number of read ports.
        serviced = 0
        while pending_loads and serviced < self.loads_per_cycle:
            tag, address, size = pending_loads.popleft()
            bank = bank_index(address)
            physical, translation_latency = translate_pair(address)
            self._forwarding_lookups(address, size, split=False)
            latency = load_parts(physical)[2]
            bank_accesses[bank] = bank_accesses.get(bank, 0) + 1
            completions.append((tag, cycle + translation_latency + latency))
            stats.add("interface.load_accesses")
            serviced += 1

        # One merge-buffer write-back through the read/write port.
        if self._pending_writebacks:
            writeback = self._pending_writebacks[0]
            if writeback.physical_line_address is None:
                physical, _ = self.translation.translate_pair(
                    writeback.virtual_line_address
                )
                writeback.physical_line_address = self.layout.line_address(physical)
            bank = self.layout.bank_index(writeback.physical_line_address)
            if bank_accesses.get(bank, 0) < self._MAX_ACCESSES_PER_BANK:
                self._pending_writebacks.popleft()
                self.l1.store_parts(writeback.physical_line_address)
                self.stats.add("interface.mbe_written")

        return completions
