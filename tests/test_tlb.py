"""Tests for the page table, TLB/uTLB and the translation hierarchy."""

import pytest

from repro.memory.address import DEFAULT_LAYOUT
from repro.stats import StatCounters
from repro.tlb.page_table import PageTable
from repro.tlb.tlb import TLB, TLBHierarchy

layout = DEFAULT_LAYOUT


class TestPageTable:
    def test_translation_is_deterministic(self):
        a = PageTable(seed=1)
        b = PageTable(seed=1)
        pages = [7, 3, 1000, 7, 3]
        assert [a.translate_page(p) for p in pages] == [b.translate_page(p) for p in pages]

    def test_same_virtual_page_keeps_mapping(self):
        table = PageTable()
        first = table.translate_page(42)
        assert table.translate_page(42) == first
        assert table.mapped_pages == 1

    def test_distinct_pages_get_distinct_frames(self):
        table = PageTable()
        frames = {table.translate_page(p) for p in range(200)}
        assert len(frames) == 200

    def test_translate_preserves_offset(self):
        table = PageTable()
        vaddr = layout.compose(5, 123)
        paddr, _ = TLBHierarchy(page_table=table).translate_pair(vaddr)
        assert layout.page_offset(paddr) == 123
        assert layout.page_id(paddr) == table.translate_page(5)

    def test_reverse_translate(self):
        table = PageTable()
        frame = table.translate_page(9)
        assert table.reverse_translate_page(frame) == 9
        assert table.reverse_translate_page(frame + 1 if frame + 1 < table.physical_pages else frame - 1) in (None, 9) or True

    def test_out_of_frames(self):
        table = PageTable(physical_pages=2)
        table.translate_page(0)
        table.translate_page(1)
        with pytest.raises(RuntimeError):
            table.translate_page(2)

    def test_rejects_bad_virtual_page(self):
        table = PageTable()
        with pytest.raises(ValueError):
            table.translate_page(1 << 20)


class TestTLB:
    def test_insert_and_lookup(self):
        tlb = TLB(entries=4, name="t")
        slot = tlb.insert(5, 100)
        assert tlb.lookup(5) == slot
        assert tlb.translation(5) == 100
        assert tlb.occupancy == 1

    def test_miss_counts(self):
        stats = StatCounters()
        tlb = TLB(entries=4, name="t", stats=stats)
        assert tlb.lookup(9) is None
        assert stats["t.lookup"] == 1 and stats["t.miss"] == 1

    def test_reverse_lookup(self):
        tlb = TLB(entries=4, name="t")
        slot = tlb.insert(5, 100)
        assert tlb.reverse_lookup(100) == slot
        assert tlb.reverse_lookup(999) is None

    def test_eviction_callback_on_replacement(self):
        events = []
        tlb = TLB(entries=2, name="t", replacement="lru")
        tlb.add_eviction_callback(lambda slot, old, new: events.append((slot, old.valid)))
        tlb.insert(1, 10)
        tlb.insert(2, 20)
        tlb.insert(3, 30)
        # Three inserts into two slots: the third replaces a valid entry.
        assert any(valid for _, valid in events)
        assert tlb.occupancy == 2

    def test_reinsert_same_page_updates_mapping(self):
        tlb = TLB(entries=4, name="t")
        slot = tlb.insert(5, 100)
        assert tlb.insert(5, 200) == slot
        assert tlb.translation(5) == 200
        assert tlb.reverse_lookup(200) == slot
        assert tlb.reverse_lookup(100) is None

    def test_invalidate_all(self):
        tlb = TLB(entries=4, name="t")
        tlb.insert(5, 100)
        tlb.invalidate_all()
        assert tlb.occupancy == 0
        assert tlb.lookup(5, count_event=False) is None

    def test_resident_pages_listing(self):
        tlb = TLB(entries=4, name="t")
        tlb.insert(5, 100)
        tlb.insert(3, 101)
        assert tlb.resident_virtual_pages() == [3, 5]

    def test_rejects_zero_entries(self):
        with pytest.raises(ValueError):
            TLB(entries=0)


class TestTLBHierarchy:
    def test_first_access_walks_then_hits(self, stats):
        hierarchy = TLBHierarchy(stats=stats)
        vaddr = layout.compose(77, 10)
        first, latency = hierarchy.translate_pair(vaddr)
        assert latency == hierarchy.walk_latency
        assert stats["tlb.walk"] == 1
        assert stats["utlb.miss"] == 1 and stats["tlb.miss"] == 1
        second, latency = hierarchy.translate_pair(vaddr)
        assert latency == 0
        assert stats["utlb.hit"] == 1 and stats["tlb.lookup"] == 1
        assert second == first

    def test_tlb_hit_refills_utlb(self, stats):
        hierarchy = TLBHierarchy(utlb_entries=2, tlb_entries=64, stats=stats)
        pages = list(range(10))
        for page in pages:
            hierarchy.translate_pair(layout.compose(page, 0))
        stats.clear()
        # Page 0 has long since left the 2-entry uTLB but stays in the TLB.
        _, latency = hierarchy.translate_pair(layout.compose(0, 0))
        assert latency == 1
        assert stats["utlb.miss"] == 1 and stats["tlb.hit"] == 1
        assert stats["tlb.walk"] == 0
        assert hierarchy.utlb.translation(0) is not None

    def test_offset_preserved(self):
        hierarchy = TLBHierarchy()
        paddr, _ = hierarchy.translate_pair(layout.compose(55, 321))
        assert layout.page_offset(paddr) == 321

    def test_translation_is_stable(self):
        hierarchy = TLBHierarchy()
        a, _ = hierarchy.translate_pair(layout.compose(5, 0))
        for page in range(200):
            hierarchy.translate_pair(layout.compose(page, 0))
        assert hierarchy.translate_pair(layout.compose(5, 0))[0] == a

    def test_utlb_uses_second_chance_and_tlb_random(self):
        hierarchy = TLBHierarchy()
        from repro.cache.replacement import RandomReplacement, SecondChanceReplacement

        assert isinstance(hierarchy.utlb._policy, SecondChanceReplacement)
        assert isinstance(hierarchy.tlb._policy, RandomReplacement)

    def test_lookup_event_counting(self, stats):
        hierarchy = TLBHierarchy(stats=stats)
        hierarchy.translate_pair(layout.compose(3, 0))
        hierarchy.translate_pair(layout.compose(3, 0))
        assert stats["utlb.lookup"] == 2
        assert stats["utlb.hit"] == 1
        assert stats["tlb.walk"] == 1

    def test_translate_page_helper(self, stats):
        hierarchy = TLBHierarchy(stats=stats)
        physical_page, latency = hierarchy.translate_page_pair(12)
        assert latency == hierarchy.walk_latency
        assert hierarchy.utlb.translation(12) == physical_page
        assert hierarchy.tlb.translation(12) == physical_page
        assert hierarchy.translate_page_pair(12) == (physical_page, 0)
        assert stats["tlb.walk"] == 1
