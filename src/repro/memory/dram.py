"""Fixed-latency DRAM model.

The paper's Table II models main memory as a 256 MByte DRAM with a flat
54-cycle access latency.  MALEC does not change the number of DRAM accesses
(Sec. VI-A), so a simple fixed-latency, capacity-checked model is sufficient:
it provides the latency that L2 misses see and counts accesses so experiments
can confirm that the different L1 interfaces leave DRAM traffic unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Optional

from repro.memory.address import AddressLayout, DEFAULT_LAYOUT
from repro.stats import StatCounters


@dataclass
class DRAMModel:
    """Flat-latency main-memory model (Table II: 256 MByte, 54 cycles).

    An access at or beyond :attr:`CAPACITY_BYTES` raises ``ValueError``
    because it indicates a broken address generator rather than a legal
    access; the page table sizes its frame pool from the same constant.

    Parameters
    ----------
    latency_cycles:
        Latency added to every access.
    layout:
        Address geometry (used only for validation).
    stats:
        Shared counter collection; ``dram.read`` / ``dram.write`` are counted.
    """

    CAPACITY_BYTES: ClassVar[int] = 256 * 1024 * 1024

    latency_cycles: int = 54
    layout: AddressLayout = DEFAULT_LAYOUT
    stats: Optional[StatCounters] = None

    def __post_init__(self) -> None:
        if self.latency_cycles < 0:
            raise ValueError("DRAM latency cannot be negative")
        if self.stats is None:
            self.stats = StatCounters()

    def _check(self, address: int) -> None:
        self.layout.check(address)
        if address >= self.CAPACITY_BYTES:
            raise ValueError(
                f"address {address:#x} beyond DRAM capacity {self.CAPACITY_BYTES:#x}"
            )

    def read(self, address: int) -> int:
        """Read the line containing ``address``; returns the access latency."""
        self._check(address)
        self.stats.add("dram.read")
        return self.latency_cycles

    def write(self, address: int) -> int:
        """Write the line containing ``address``; returns the access latency."""
        self._check(address)
        self.stats.add("dram.write")
        return self.latency_cycles
