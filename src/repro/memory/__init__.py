"""Memory substrate: address arithmetic, DRAM model and hierarchy glue.

This package provides the lowest layer of the MALEC reproduction: the
address-space geometry shared by every other component (pages, cache lines,
banks, sub-blocks), a simple fixed-latency DRAM model and the
:class:`~repro.memory.hierarchy.MemoryHierarchy` container that wires the L1
data cache, the unified L2 and DRAM together.
"""

from repro.memory.address import AddressLayout, DEFAULT_LAYOUT
from repro.memory.dram import DRAMModel
from repro.memory.hierarchy import MemoryHierarchy

__all__ = [
    "AddressLayout",
    "DEFAULT_LAYOUT",
    "DRAMModel",
    "MemoryHierarchy",
]
