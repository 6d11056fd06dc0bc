"""Tests for the L1 cache bank, the full L1, the L2 and the DRAM model."""

import pytest

from repro.cache.cache_bank import CacheBank
from repro.cache.l1_cache import L1DataCache
from repro.cache.l2_cache import L2Cache
from repro.memory.address import DEFAULT_LAYOUT
from repro.memory.dram import DRAMModel
from repro.stats import StatCounters

layout = DEFAULT_LAYOUT


def addr(page: int, line: int, offset: int = 0) -> int:
    return layout.compose_line(page, line, offset)


def read(bank: CacheBank, address: int, way_hint=None):
    """``bank.read_parts`` on a whole address: ``(hit, way, reduced, hint_wrong)``."""
    return bank.read_parts(layout.set_index(address), layout.tag(address), way_hint)


def write(bank: CacheBank, address: int, way_hint=None):
    """``bank.write_parts`` on a whole address: ``(hit, way, reduced)``."""
    return bank.write_parts(layout.set_index(address), layout.tag(address), way_hint)


def fill(bank: CacheBank, address: int, dirty: bool = False) -> int:
    """``bank.fill_parts`` on a whole address; returns the filled way."""
    way, _, _ = bank.fill_parts(address, layout.set_index(address), layout.tag(address), dirty)
    return way


class TestCacheBank:
    def test_rejects_foreign_bank_address(self):
        bank = CacheBank(bank_index=0)
        with pytest.raises(ValueError):
            bank.contains(addr(1, 1))  # line 1 belongs to bank 1

    def test_conventional_read_counts_all_ways(self, stats):
        bank = CacheBank(bank_index=0, stats=stats)
        read(bank, addr(1, 0))
        assert stats["l1.tag_read"] == layout.l1_associativity
        assert stats["l1.data_read"] == layout.l1_associativity
        assert stats["l1.conventional_access"] == 1
        assert stats["l1.ctrl"] == 1

    def test_reduced_read_counts_single_data_array(self, stats):
        bank = CacheBank(bank_index=0, stats=stats)
        way = fill(bank, addr(1, 0))
        stats.clear()
        hit, _, reduced, _ = read(bank, addr(1, 0), way_hint=way)
        assert hit and reduced
        assert stats["l1.tag_read"] == 0
        assert stats["l1.data_read"] == 1
        assert stats["l1.reduced_access"] == 1

    def test_wrong_way_hint_falls_back_to_conventional(self, stats):
        bank = CacheBank(bank_index=0, stats=stats)
        way = fill(bank, addr(1, 0))
        wrong = (way + 1) % layout.l1_associativity
        hit, _, _, hint_wrong = read(bank, addr(1, 0), way_hint=wrong)
        assert hit and hint_wrong
        assert stats["l1.way_hint_wrong"] == 1
        assert stats["l1.conventional_access"] == 1

    def test_fill_and_eviction_callbacks(self):
        fills, evicts = [], []
        bank = CacheBank(
            bank_index=0,
            on_fill=lambda a, w: fills.append((a, w)),
            on_evict=lambda a, w: evicts.append((a, w)),
        )
        # Fill more lines than the set holds (same set, different tags).
        set_span = layout.l1_banks * layout.l1_sets_per_bank  # lines between same-set addresses
        for i in range(layout.l1_associativity + 1):
            fill(bank, layout.address_of_line(i * set_span))
        assert len(fills) == layout.l1_associativity + 1
        assert len(evicts) == 1

    def test_eviction_bookkeeping_precedes_the_fill(self, stats):
        """Eviction counters, then the evict listener, then the fill's."""
        events = []

        def listener(kind):
            def record(address, way):
                events.append((kind, address, way, stats["l1.writeback"], stats["l1.fill"]))

            return record

        bank = CacheBank(
            bank_index=0, stats=stats, on_fill=listener("fill"), on_evict=listener("evict")
        )
        set_span = layout.l1_banks * layout.l1_sets_per_bank
        lines = [layout.address_of_line(i * set_span) for i in range(5)]
        fill(bank, lines[0], dirty=True)
        for line in lines[1:]:
            fill(bank, line)
        # An empty set fills from its last way down, so line 0 went to way 3.
        assert events[-2:] == [("evict", lines[0], 3, 1, 4), ("fill", lines[4], 3, 1, 5)]
        assert stats["l1.eviction"] == 1

    def test_excluded_way_rotation(self):
        bank = CacheBank(bank_index=0, restrict_way_allocation=True)
        assert bank.excluded_way_for(addr(0, 0)) == 0
        assert bank.excluded_way_for(addr(0, 4)) == 1
        assert bank.excluded_way_for(addr(0, 8)) == 2
        assert bank.excluded_way_for(addr(0, 12)) == 3
        assert bank.excluded_way_for(addr(0, 16)) == 0

    def test_restricted_fill_avoids_excluded_way(self):
        bank = CacheBank(bank_index=0, restrict_way_allocation=True)
        set_span = layout.l1_banks * layout.l1_sets_per_bank
        for i in range(16):
            way = fill(bank, layout.address_of_line(i * set_span))
            assert way != 0  # line-in-page 0 excludes way 0

    def test_store_write_marks_dirty_and_hits(self, stats):
        bank = CacheBank(bank_index=0, stats=stats)
        fill(bank, addr(1, 0))
        hit, _, _ = write(bank, addr(1, 0))
        assert hit
        assert stats["l1.data_write"] >= 1
        # Clean fills to the same set evict the written line last, as dirty.
        set_span = layout.l1_banks * layout.l1_sets_per_bank
        first = layout.line_number(addr(1, 0))
        evicted = []
        for i in range(1, layout.l1_associativity + 1):
            other = layout.address_of_line(first + i * set_span)
            parts = (layout.set_index(other), layout.tag(other))
            evicted.append(bank.fill_parts(other, *parts, False)[1:])
        assert evicted[-1] == (addr(1, 0), True)
        assert evicted[:-1] == [(None, False)] * (layout.l1_associativity - 1)

    def test_way_of_and_contains(self):
        bank = CacheBank(bank_index=0)
        assert not bank.contains(addr(2, 0))
        way = fill(bank, addr(2, 0))
        assert bank.contains(addr(2, 0))
        assert bank.way_of(addr(2, 0)) == way


class TestL1DataCache:
    def test_load_miss_then_hit(self, stats):
        l1 = L1DataCache(stats=stats)
        hit, _, latency, _, _, _ = l1.load_parts(addr(3, 5))
        assert not hit and latency > l1.hit_latency
        hit, _, latency, _, _, _ = l1.load_parts(addr(3, 5))
        assert hit and latency == l1.hit_latency
        assert stats["l1.load_miss"] == 1 and stats["l1.load_hit"] == 1

    def test_store_allocates_line(self):
        l1 = L1DataCache()
        assert not l1.store_parts(addr(4, 2))[0]
        assert l1.contains(addr(4, 2))
        assert l1.store_parts(addr(4, 2))[0]

    def test_bank_routing(self):
        l1 = L1DataCache()
        bank_index = l1.load_parts(addr(1, 6))[4]
        assert bank_index == 6 % 4

    def test_fill_listeners_reach_way_consumers(self):
        l1 = L1DataCache()
        seen = []
        l1.add_fill_listener(lambda a, w: seen.append(("fill", a, w)))
        l1.add_evict_listener(lambda a, w: seen.append(("evict", a, w)))
        l1.load_parts(addr(5, 0))
        assert seen and seen[0][0] == "fill"

    def test_miss_counts(self):
        l1 = L1DataCache()
        l1.load_parts(addr(6, 0))
        l1.load_parts(addr(6, 0))
        assert (l1.stats["l1.load_miss"], l1.stats["l1.load"]) == (1, 2)
        assert (l1.stats["l1.store_miss"], l1.stats["l1.store"]) == (0, 0)

    def test_occupancy_grows_with_distinct_lines(self):
        l1 = L1DataCache()
        for line in range(10):
            l1.load_parts(addr(7, line))
        assert l1.occupancy() == 10

    def test_reduced_access_via_hint(self, stats):
        l1 = L1DataCache(stats=stats)
        way = l1.load_parts(addr(8, 1))[1]
        stats.clear()
        hit, _, _, reduced, _, _ = l1.load_parts(addr(8, 1), way_hint=way)
        assert hit and reduced
        assert stats["l1.tag_read"] == 0


class TestL2AndDRAM:
    def test_l2_miss_goes_to_dram(self, stats):
        l2 = L2Cache(stats=stats)
        latency = l2.access(addr(9, 0))
        assert latency == l2.latency_cycles + l2.dram.latency_cycles
        assert stats["dram.read"] == 1
        assert l2.contains(addr(9, 0))

    def test_l2_hit_latency(self):
        l2 = L2Cache()
        l2.access(addr(9, 0))
        assert l2.access(addr(9, 0)) == l2.latency_cycles

    def test_l2_miss_counts(self):
        l2 = L2Cache()
        l2.access(addr(9, 0))
        l2.access(addr(9, 0))
        assert (l2.stats["l2.miss"], l2.stats["l2.access"]) == (1, 2)

    def test_dirty_victim_written_back_at_its_own_address(self, monkeypatch):
        l2 = L2Cache()
        written = []
        monkeypatch.setattr(l2.dram, "write", written.append)
        stride = l2.num_sets * layout.line_bytes  # one L2 set apart
        for i in range(l2.ASSOCIATIVITY):
            l2.access(i * stride, is_write=True)
        assert written == []
        l2.access(l2.ASSOCIATIVITY * stride)  # evicts the LRU line at 0x0
        assert written == [0]
        assert l2.stats["l2.writeback"] == 1

    def test_clean_victim_not_written_back(self, monkeypatch):
        l2 = L2Cache()
        written = []
        monkeypatch.setattr(l2.dram, "write", written.append)
        stride = l2.num_sets * layout.line_bytes  # one L2 set apart
        for i in range(l2.ASSOCIATIVITY + 1):
            l2.access(i * stride)
        assert not l2.contains(0)  # the LRU line left without a write-back
        assert written == []
        assert l2.stats["l2.writeback"] == 0

    def test_write_hit_dirties_the_line(self, monkeypatch):
        l2 = L2Cache()
        written = []
        monkeypatch.setattr(l2.dram, "write", written.append)
        stride = l2.num_sets * layout.line_bytes
        l2.access(3 * stride)  # clean fill
        l2.access(3 * stride, is_write=True)  # write hit
        for i in range(4, l2.ASSOCIATIVITY + 4):
            l2.access(i * stride)
        assert written == [3 * stride]

    def test_l2_geometry_is_table_ii(self):
        # 1 MByte in 16 ways of 64-byte lines: 1024 sets, indexed by mask.
        l2 = L2Cache()
        assert l2.num_sets == 1024 and l2.array.ways == 16
        line = layout.line_number(addr(9, 3))
        assert l2._set_and_tag(addr(9, 3)) == (line % 1024, line // 1024)

    def test_dram_counts_and_capacity(self):
        dram = DRAMModel()
        assert dram.read(0) == dram.latency_cycles
        assert dram.write(0) == dram.latency_cycles
        assert (dram.stats["dram.read"], dram.stats["dram.write"]) == (1, 1)
        last = 256 * 1024 * 1024 - 1
        assert dram.read(last) == dram.latency_cycles
        with pytest.raises(ValueError):
            dram.read(last + 1)

    def test_dram_validation(self):
        with pytest.raises(ValueError):
            DRAMModel(latency_cycles=-1)


def chain(stats=None, l1_hit_latency=2, l2_latency=12, dram_latency=54):
    """An L1 in front of its own L2 and DRAM, all counting into ``stats``."""
    stats = stats if stats is not None else StatCounters()
    dram = DRAMModel(latency_cycles=dram_latency, stats=stats)
    l2 = L2Cache(latency_cycles=l2_latency, dram=dram, stats=stats)
    return L1DataCache(hit_latency=l1_hit_latency, l2=l2, stats=stats)


class TestL1L2DRAMChain:
    def test_l1_miss_fills_both_levels(self):
        l1 = chain()
        hit, _, latency, _, _, _ = l1.load_parts(addr(10, 0))
        assert not hit
        # The miss latency includes L2 and DRAM (Table II: 2 + 12 + 54).
        assert latency == 2 + 12 + 54
        assert l1.contains(addr(10, 0))
        assert l1.l2.contains(addr(10, 0))

    def test_shared_stats_object(self, stats):
        l1 = chain(stats)
        l1.load_parts(addr(10, 0))
        assert l1.stats is l1.l2.stats is l1.l2.dram.stats is stats
        assert stats["l1.load"] == 1
        assert stats["l2.access"] == 1
        assert stats["dram.read"] == 1

    def test_latency_overrides(self):
        l1 = chain(l1_hit_latency=1, l2_latency=5, dram_latency=10)
        latency = l1.load_parts(addr(11, 0))[2]
        assert latency == 1 + 5 + 10
