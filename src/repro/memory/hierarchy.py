"""Container wiring the full data-memory hierarchy together.

:class:`MemoryHierarchy` builds the L1 data cache, the unified L2 and the
DRAM model from a handful of parameters and a shared statistics object, so
interface models and the simulator only have to deal with one object.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.cache.l1_cache import L1DataCache
from repro.cache.l2_cache import L2Cache
from repro.memory.address import AddressLayout, DEFAULT_LAYOUT
from repro.memory.dram import DRAMModel
from repro.stats import StatCounters


@dataclass
class MemoryHierarchy:
    """L1 + L2 + DRAM, built from Table II defaults.

    Parameters
    ----------
    layout:
        Shared address geometry.
    l1_hit_latency / l2_latency / dram_latency:
        Access latencies in cycles (Table II: 2, 12 and 54).
    l1_read_ports:
        Read ports per L1 bank — 1 for Base1ldst and MALEC, 2 for Base2ld1st.
    restrict_way_allocation:
        Forwarded to the L1; see :class:`repro.cache.cache_bank.CacheBank`.
    stats:
        Shared statistics collection; one is created if omitted.
    """

    layout: AddressLayout = DEFAULT_LAYOUT
    l1_hit_latency: int = 2
    l2_latency: int = 12
    dram_latency: int = 54
    l1_read_ports: int = 1
    l1_write_ports: int = 1
    restrict_way_allocation: bool = False
    seed: int = 0
    stats: Optional[StatCounters] = None
    dram: DRAMModel = field(init=False)
    l2: L2Cache = field(init=False)
    l1: L1DataCache = field(init=False)

    def __post_init__(self) -> None:
        if self.stats is None:
            self.stats = StatCounters()
        self.dram = DRAMModel(
            latency_cycles=self.dram_latency, layout=self.layout, stats=self.stats
        )
        self.l2 = L2Cache(
            latency_cycles=self.l2_latency,
            layout=self.layout,
            dram=self.dram,
            stats=self.stats,
            seed=self.seed,
        )
        self.l1 = L1DataCache(
            layout=self.layout,
            hit_latency=self.l1_hit_latency,
            read_ports_per_bank=self.l1_read_ports,
            write_ports_per_bank=self.l1_write_ports,
            restrict_way_allocation=self.restrict_way_allocation,
            l2=self.l2,
            stats=self.stats,
            seed=self.seed,
        )
