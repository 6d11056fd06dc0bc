"""Tests for the load queue, store buffer and merge buffer."""

import pytest

from repro.buffers.load_queue import LoadQueue
from repro.buffers.merge_buffer import MergeBuffer
from repro.buffers.store_buffer import StoreBuffer
from repro.cache.l1_cache import L1DataCache
from repro.interfaces.base_1ldst import BaselineSingleInterface
from repro.memory.address import DEFAULT_LAYOUT
from repro.stats import StatCounters
from repro.tlb.tlb import TLBHierarchy

layout = DEFAULT_LAYOUT


def forwarding_interface():
    """A baseline interface and its stats.

    Loads search its store and merge buffers through
    ``BaseL1Interface._forwarding_lookups``, the search every simulation runs.
    """
    stats = StatCounters()
    interface = BaselineSingleInterface(
        L1DataCache(stats=stats), TLBHierarchy(stats=stats), stats=stats
    )
    return stats, interface


class TestLoadQueue:
    def test_allocate_and_release(self):
        lq = LoadQueue(entries=2)
        lq.allocate_issued("a", cycle=0)
        assert lq.occupancy == 1 and not lq.full
        lq.allocate_issued("b", cycle=0)
        assert lq.full
        lq.complete_release("a", 3)
        assert lq.occupancy == 1 and not lq.full
        with pytest.raises(KeyError):
            lq.complete_release("a", 4)  # already released

    def test_overflow_raises(self):
        lq = LoadQueue(entries=1)
        lq.allocate_issued("a", 0)
        with pytest.raises(RuntimeError):
            lq.allocate_issued("b", 0)

    def test_duplicate_tag_rejected(self):
        lq = LoadQueue(entries=4)
        lq.allocate_issued("a", 0)
        with pytest.raises(ValueError):
            lq.allocate_issued("a", 1)

    def test_latency_tracking(self):
        stats = StatCounters()
        lq = LoadQueue(stats=stats)
        lq.allocate_issued("a", 2)
        lq.allocate_issued("b", 3)
        lq.complete_release("a", 7)
        lq.complete_release("b", 4)
        assert stats["lq.total_latency"] == 5 + 1
        assert stats["lq.completed"] == 2
        # The allocation charge belongs to the submitting interface.
        assert stats["lq.allocate"] == 0

    def test_release_of_unknown_tag_raises(self):
        lq = LoadQueue()
        with pytest.raises(KeyError):
            lq.complete_release("missing", 3)

    def test_zero_entries_rejected(self):
        with pytest.raises(ValueError):
            LoadQueue(entries=0)


class TestStoreBuffer:
    def test_insert_and_commit_drain(self):
        sb = StoreBuffer(entries=4)
        sb.insert("s1", 0x100, 4)
        sb.insert("s2", 0x200, 4)
        assert sb.occupancy == 2
        assert sb.pop_committed() is None
        sb.mark_committed("s1")
        assert sb.pop_committed() == ("s1", 0x100, 4)
        assert sb.occupancy == 1

    def test_overflow(self):
        sb = StoreBuffer(entries=1)
        sb.insert("s1", 0, 4)
        assert sb.full
        with pytest.raises(RuntimeError):
            sb.insert("s2", 0, 4)

    def test_forwarding_counts_one_hit_for_overlapping_stores(self):
        stats, interface = forwarding_interface()
        interface.store_buffer.insert("old", 0x100, 4)
        interface.store_buffer.insert("new", 0x100, 4)
        interface._forwarding_lookups(0x100, 4, split=False)
        # The search stops at the youngest overlapping store.
        assert stats["sb.forward_hit"] == 1

    def test_forwarding_respects_overlap(self):
        stats, interface = forwarding_interface()
        interface.store_buffer.insert("s", 0x100, 4)
        interface._forwarding_lookups(0x104, 4, split=False)
        assert stats["sb.forward_hit"] == 0
        interface._forwarding_lookups(0x102, 2, split=False)
        assert stats["sb.forward_hit"] == 1

    def test_split_vs_full_lookup_events(self):
        stats, interface = forwarding_interface()
        interface._forwarding_lookups(0x100, 4, split=False)
        interface._forwarding_lookups(0x100, 4, split=True)
        interface.store_buffer.charge_shared_page_lookup()
        assert stats["sb.lookup_full"] == 1
        assert stats["sb.lookup_offset"] == 1
        assert stats["sb.lookup_page_shared"] == 1

    def test_out_of_order_or_unknown_commit_raises(self):
        # Stores commit in program order, so only the oldest uncommitted
        # store may commit: the committed stores are the oldest entries.
        sb = StoreBuffer()
        sb.insert("a", 0, 4)
        sb.insert("b", 4, 4)
        for tag in ("b", "missing"):
            with pytest.raises(ValueError):
                sb.mark_committed(tag)
        assert sb.committed_count == 0
        sb.mark_committed("a")
        with pytest.raises(ValueError):
            sb.mark_committed("a")
        assert sb.pop_committed() == ("a", 0, 4)
        assert sb.pop_committed() is None
        assert sb.occupancy == 1


class TestMergeBuffer:
    def test_same_line_stores_merge(self):
        mb = MergeBuffer(entries=2)
        assert mb.commit_store(0x100) is None
        assert mb.commit_store(0x104) is None  # same 64-byte line
        assert mb.occupancy == 1
        assert mb.stats["mb.merged_store"] == 1
        assert mb.stats["mb.allocate"] == 1

    def test_eviction_when_full(self):
        mb = MergeBuffer(entries=2)
        mb.commit_store(layout.compose_line(1, 0))
        mb.commit_store(layout.compose_line(1, 1))
        evicted = mb.commit_store(layout.compose_line(1, 2))
        assert evicted == layout.compose_line(1, 0)
        assert mb.occupancy == 2


    def test_lookup_finds_buffered_line(self):
        stats, interface = forwarding_interface()
        interface.merge_buffer.commit_store(0x140)
        interface._forwarding_lookups(0x150, 4, split=False)  # same line
        assert stats["mb.forward_hit"] == 1
        interface._forwarding_lookups(0x100, 4, split=False)
        assert stats["mb.forward_hit"] == 1
        assert stats["mb.lookup_full"] == 2

    def test_split_lookup_events(self):
        stats, interface = forwarding_interface()
        interface._forwarding_lookups(0x100, 4, split=True)
        interface.merge_buffer.charge_shared_page_lookup()
        assert stats["mb.lookup_offset"] == 1
        assert stats["mb.lookup_page_shared"] == 1

    def test_drain_returns_everything(self):
        mb = MergeBuffer(entries=4)
        mb.commit_store(layout.compose_line(2, 0, 8))
        mb.commit_store(layout.compose_line(2, 1))
        assert mb.drain() == [layout.compose_line(2, 0), layout.compose_line(2, 1)]
        assert mb.occupancy == 0
