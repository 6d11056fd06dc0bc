"""Base1ldst: the energy-oriented single-access baseline (Table I).

One load *or* one store may finish address computation per cycle, the
uTLB/TLB has a single read/write port and the cache interface performs at
most one access per cycle (the single rd/wt port is shared between demand
loads and merge-buffer write-backs).  All structures are single-ported, which
is what makes this configuration the energy reference of Fig. 4b.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, List, Optional, Tuple

from repro.cache.l1_cache import L1DataCache
from repro.interfaces.base import BaseL1Interface, CompletedAccess
from repro.stats import StatCounters
from repro.tlb.tlb import TLBHierarchy


class BaselineSingleInterface(BaseL1Interface):
    """One memory access per cycle, single-ported everywhere."""

    name = "Base1ldst"
    #: one address-computation slot, shared by loads and stores
    load_slots = 0
    store_slots = 0
    flexible_slots = 1

    def __init__(
        self,
        l1: L1DataCache,
        translation: TLBHierarchy,
        stats: Optional[StatCounters] = None,
        **kwargs,
    ) -> None:
        super().__init__(l1, translation, stats=stats, **kwargs)
        #: (tag, address, size) of loads waiting for the cache port
        self._pending_loads: Deque[Tuple[Any, int, int]] = deque()

    # ------------------------------------------------------------------
    def can_accept_load(self) -> bool:
        # A small queue in front of the single cache port; deeper queuing
        # would only hide the structural hazard the paper wants to expose.
        lq = self.load_queue
        return len(lq._entries) < lq.entries and len(self._pending_loads) < 4

    def _enqueue_load(self, tag, address, size) -> None:
        self._pending_loads.append((tag, address, size))

    def _loads_quiescent(self) -> bool:
        return not self._pending_loads

    def _on_store_submitted(self, address: int, size: int, cycle: int) -> None:
        # The baseline translates every memory reference individually; the
        # store's translation shares the cycle's single TLB port with its
        # address computation.
        self.translation.translate_pair(address)

    # ------------------------------------------------------------------
    def _service_cycle(self, cycle: int) -> List[CompletedAccess]:
        """Use the single cache port: demand loads first, then write-backs."""
        completions: List[CompletedAccess] = []
        if self._pending_loads:
            tag, address, size = self._pending_loads.popleft()
            physical, translation_latency = self.translation.translate_pair(address)
            self._forwarding_lookups(address, size, split=False)
            latency = self.l1.load_parts(physical)[2]
            completions.append((tag, cycle + translation_latency + latency))
            self.stats.add("interface.load_accesses")
        elif self._pending_writebacks:
            self._writeback_to_cache(self._pending_writebacks.popleft())
        return completions
