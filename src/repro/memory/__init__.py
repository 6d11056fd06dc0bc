"""Memory substrate: address arithmetic and the DRAM model.

This package provides the lowest layer of the MALEC reproduction: the
address-space geometry shared by every other component (pages, cache lines,
banks, sub-blocks) and a simple fixed-latency DRAM model.  The
:class:`~repro.sim.simulator.Simulator` chains a
:class:`~repro.memory.dram.DRAMModel` behind the unified
:class:`~repro.cache.l2_cache.L2Cache` and the
:class:`~repro.cache.l1_cache.L1DataCache` from the configuration's
:class:`~repro.sim.config.CacheParameters`.
"""

from repro.memory.address import AddressLayout, DEFAULT_LAYOUT
from repro.memory.dram import DRAMModel

__all__ = [
    "AddressLayout",
    "DEFAULT_LAYOUT",
    "DRAMModel",
]
