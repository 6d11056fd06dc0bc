"""Unified L2 cache model.

Table II configures a 1 MByte, 16-way set-associative L2 with a 12-cycle
access latency.  The paper excludes the L2 from the energy accounting (MALEC
changes the *timing* of L2 accesses but not their number), so this model only
needs to provide hit/miss behaviour and latency, and to count accesses so the
invariance of L2 traffic across interfaces can be verified.
"""

from __future__ import annotations

from typing import Optional

from repro.cache.set_assoc import SetAssociativeArray
from repro.memory.address import AddressLayout, DEFAULT_LAYOUT
from repro.memory.dram import DRAMModel
from repro.stats import StatCounters


class L2Cache:
    """Single-array unified L2 backed by a DRAM model.

    The geometry is Table II's: :attr:`CAPACITY_BYTES` (1 MByte) in
    :attr:`ASSOCIATIVITY` (16) ways, so 64-byte lines give 1024 sets.
    Capacity, ways and line size are powers of two, so the set count is one
    too and the set index is a mask of the line number.

    Parameters
    ----------
    latency_cycles:
        Access latency (Table II: 12 cycles).
    dram:
        Backing store; a default :class:`~repro.memory.dram.DRAMModel` is
        created when omitted.
    """

    CAPACITY_BYTES = 1024 * 1024
    ASSOCIATIVITY = 16
    # Fixed per-access counter patterns, counted with one add_many call.
    _combo_hit = (("l2.access", 1), ("l2.hit", 1))
    _combo_miss = (("l2.access", 1), ("l2.miss", 1))

    def __init__(
        self,
        latency_cycles: int = 12,
        layout: AddressLayout = DEFAULT_LAYOUT,
        dram: Optional[DRAMModel] = None,
        stats: Optional[StatCounters] = None,
    ) -> None:
        self.layout = layout
        self.latency_cycles = latency_cycles
        self.stats = stats if stats is not None else StatCounters()
        self.dram = dram if dram is not None else DRAMModel(layout=layout, stats=self.stats)
        self.num_sets = self.CAPACITY_BYTES // (self.ASSOCIATIVITY * layout.line_bytes)
        self._set_mask = self.num_sets - 1
        self._set_bits = self.num_sets.bit_length() - 1
        self.array = SetAssociativeArray(num_sets=self.num_sets, ways=self.ASSOCIATIVITY)

    # ------------------------------------------------------------------
    def _set_and_tag(self, physical_address: int) -> tuple[int, int]:
        line = self.layout.line_number(physical_address)
        return line & self._set_mask, line >> self._set_bits

    def access(self, physical_address: int, is_write: bool = False) -> int:
        """Access the L2 for a line; returns the total latency in cycles.

        On a miss the line is fetched from DRAM and installed.  A dirty
        victim counts ``l2.writeback`` and is written to DRAM at its own
        line address, rebuilt from its tag and set; the write-back's latency
        is not added, because write-backs are off the critical path.
        """
        set_index, tag = self._set_and_tag(physical_address)
        way = self.array.find_way(set_index, tag)
        if way is not None:
            self.stats.add_many(self._combo_hit)
            if is_write:
                self.array.mark_dirty(set_index, way)
            return self.latency_cycles

        self.stats.add_many(self._combo_miss)
        dram_latency = self.dram.read(physical_address)
        _, evicted_tag, evicted_dirty = self.array.fill(set_index, tag, dirty=is_write)
        if evicted_dirty:
            self.stats.add("l2.writeback")
            victim_line = (evicted_tag << self._set_bits) | set_index
            self.dram.write(self.layout.address_of_line(victim_line))
        return self.latency_cycles + dram_latency

    def contains(self, physical_address: int) -> bool:
        """True when the line is resident in the L2."""
        set_index, tag = self._set_and_tag(physical_address)
        return self.array.find_way(set_index, tag, update_replacement=False) is not None

    @property
    def miss_rate(self) -> float:
        """Fraction of L2 accesses that missed so far."""
        return self.stats.ratio("l2.miss", "l2.access")
