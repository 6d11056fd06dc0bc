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

    Parameters
    ----------
    capacity_bytes / associativity / latency_cycles:
        Table II values by default (1 MByte, 16-way, 12 cycles).
    dram:
        Backing store; a default :class:`~repro.memory.dram.DRAMModel` is
        created when omitted.
    """

    def __init__(
        self,
        capacity_bytes: int = 1024 * 1024,
        associativity: int = 16,
        latency_cycles: int = 12,
        layout: AddressLayout = DEFAULT_LAYOUT,
        dram: Optional[DRAMModel] = None,
        replacement: str = "lru",
        stats: Optional[StatCounters] = None,
        seed: int = 0,
    ) -> None:
        if capacity_bytes % (associativity * layout.line_bytes):
            raise ValueError("L2 capacity must divide into ways and lines")
        self.layout = layout
        self.latency_cycles = latency_cycles
        self.stats = stats if stats is not None else StatCounters()
        self.dram = dram if dram is not None else DRAMModel(layout=layout, stats=self.stats)
        self.num_sets = capacity_bytes // (associativity * layout.line_bytes)
        self.associativity = associativity
        # Power-of-two set counts (the default geometry) split with masks.
        if self.num_sets & (self.num_sets - 1) == 0:
            self._set_mask = self.num_sets - 1
            self._set_bits = self.num_sets.bit_length() - 1
        else:
            self._set_mask = None
            self._set_bits = 0
        self.array = SetAssociativeArray(
            num_sets=self.num_sets,
            ways=associativity,
            replacement=replacement,
            seed=seed,
        )
        # Per-access counters resolved to integer slots once (hot path).
        self._h_access = self.stats.handle("l2.access")
        self._h_hit = self.stats.handle("l2.hit")
        self._h_miss = self.stats.handle("l2.miss")
        self._h_writeback = self.stats.handle("l2.writeback")
        # Fixed per-access counter patterns, flushed with one bump_many call.
        self._combo_hit = ((self._h_access, 1), (self._h_hit, 1))
        self._combo_miss = ((self._h_access, 1), (self._h_miss, 1))

    # ------------------------------------------------------------------
    def _set_and_tag(self, physical_address: int) -> tuple[int, int]:
        line = self.layout.line_number(physical_address)
        if self._set_mask is not None:
            return line & self._set_mask, line >> self._set_bits
        return line % self.num_sets, line // self.num_sets

    def access(self, physical_address: int, is_write: bool = False) -> int:
        """Access the L2 for a line; returns the total latency in cycles.

        On a miss the line is fetched from DRAM and installed; dirty victims
        are written back (counted, latency not added — write-backs are off the
        critical path).
        """
        set_index, tag = self._set_and_tag(physical_address)
        way = self.array.find_way(set_index, tag)
        if way is not None:
            self.stats.bump_many(self._combo_hit)
            if is_write:
                self.array.mark_dirty(set_index, way)
            return self.latency_cycles

        self.stats.bump_many(self._combo_miss)
        dram_latency = self.dram.read(physical_address)
        _, eviction = self.array.fill(set_index, tag, dirty=is_write)
        if eviction is not None and eviction.dirty:
            self.stats.bump(self._h_writeback)
            self.dram.write(physical_address)
        return self.latency_cycles + dram_latency

    def contains(self, physical_address: int) -> bool:
        """True when the line is resident in the L2."""
        set_index, tag = self._set_and_tag(physical_address)
        return self.array.find_way(set_index, tag, update_replacement=False) is not None

    @property
    def miss_rate(self) -> float:
        """Fraction of L2 accesses that missed so far."""
        return self.stats.ratio("l2.miss", "l2.access")
