"""Tests for the three L1 interface models (Table I)."""

import pytest

from repro.interfaces.base_1ldst import BaselineSingleInterface
from repro.interfaces.base_2ld1st import BaselineDualLoadInterface
from repro.interfaces.malec import MalecInterface
from repro.memory.address import DEFAULT_LAYOUT
from repro.memory.hierarchy import MemoryHierarchy
from repro.stats import StatCounters
from repro.tlb.tlb import TLBHierarchy

layout = DEFAULT_LAYOUT


def addr(page: int, line: int, offset: int = 0) -> int:
    return layout.compose_line(page, line, offset)


def build(interface_cls, **kwargs):
    stats = StatCounters()
    hierarchy = MemoryHierarchy(stats=stats)
    translation = TLBHierarchy(stats=stats)
    interface = interface_cls(hierarchy, translation, stats=stats, **kwargs)
    return stats, interface


def run_cycles(interface, cycles, start=0):
    """Advance an interface through idle cycles, collecting completions."""
    completions = []
    for cycle in range(start, start + cycles):
        interface.begin_cycle(cycle)
        completions.extend(interface.tick(cycle))
    return completions


@pytest.mark.parametrize(
    "interface_cls",
    [BaselineSingleInterface, BaselineDualLoadInterface, MalecInterface],
)
def test_line_zero_eviction_is_written_back(interface_cls):
    # Line address 0 is falsy: the merge-buffer eviction that returns it
    # must still be queued and then written to the cache.
    stats, interface = build(interface_cls, mb_entries=1)
    for index, address in enumerate((addr(0, 0, 8), addr(0, 1))):
        interface.begin_cycle(index)
        interface.submit_store(f"st{index}", address, 4, index)
        interface.commit_store(f"st{index}", index)
        interface.tick(index)
    assert stats["mb.eviction"] == 1
    assert stats["interface.mbe_queued"] == 1
    run_cycles(interface, 6, start=2)
    assert stats["interface.mbe_written"] == 1
    assert interface.quiescent()


class TestSlotAccounting:
    def test_base1ldst_single_shared_slot(self):
        _, interface = build(BaselineSingleInterface)
        interface.begin_cycle(0)
        assert interface.reserve_load_slot()
        assert not interface.reserve_load_slot()
        assert not interface.reserve_store_slot()
        interface.begin_cycle(1)
        assert interface.reserve_store_slot()

    def test_base2ld1st_two_loads_one_store(self):
        _, interface = build(BaselineDualLoadInterface)
        interface.begin_cycle(0)
        assert interface.reserve_load_slot()
        assert interface.reserve_load_slot()
        assert not interface.reserve_load_slot()
        assert interface.reserve_store_slot()
        assert not interface.reserve_store_slot()

    def test_malec_one_load_plus_two_flexible(self):
        _, interface = build(MalecInterface)
        interface.begin_cycle(0)
        assert interface.reserve_load_slot()
        assert interface.reserve_load_slot()
        assert interface.reserve_store_slot()
        assert not interface.reserve_store_slot()
        assert not interface.reserve_load_slot()


class TestBaselineSingle:
    def test_load_completes_after_hit_latency(self):
        stats, interface = build(BaselineSingleInterface)
        interface.begin_cycle(0)
        interface.submit_load("ld0", addr(1, 0), 4, 0)
        (tag, ready), = interface.tick(0)
        assert tag == "ld0"
        assert ready > 0
        # A second access to the same line is an L1 hit with 2-cycle latency.
        interface.begin_cycle(1)
        interface.submit_load("ld1", addr(1, 0), 4, 1)
        (_, ready_hit), = interface.tick(1)
        assert ready_hit == 1 + 2

    def test_one_access_per_cycle(self):
        stats, interface = build(BaselineSingleInterface)
        interface.begin_cycle(0)
        interface.submit_load("a", addr(1, 0), 4, 0)
        interface.submit_load("b", addr(1, 1), 4, 0)
        assert len(interface.tick(0)) == 1
        interface.begin_cycle(1)
        assert len(interface.tick(1)) == 1

    def test_every_load_translates_individually(self):
        stats, interface = build(BaselineSingleInterface)
        for cycle in range(3):
            interface.begin_cycle(cycle)
            interface.submit_load(f"ld{cycle}", addr(1, cycle), 4, cycle)
            interface.tick(cycle)
        assert stats["utlb.lookup"] == 3

    def test_store_commit_reaches_cache_via_merge_buffer(self):
        stats, interface = build(BaselineSingleInterface, mb_entries=1)
        # Two committed stores to different lines force an MBE eviction.
        for index in range(2):
            cycle = index
            interface.begin_cycle(cycle)
            interface.submit_store(f"st{index}", addr(2, index), 4, cycle)
            interface.commit_store(f"st{index}", cycle)
            interface.tick(cycle)
        run_cycles(interface, 4, start=2)
        assert stats["interface.mbe_written"] >= 1

    def test_finalize_drains_all_stores(self):
        stats, interface = build(BaselineSingleInterface)
        interface.begin_cycle(0)
        interface.submit_store("st", addr(3, 0), 4, 0)
        interface.commit_store("st", 0)
        interface.finalize(10)
        assert stats["interface.mbe_written"] == 1
        assert interface.quiescent()


class TestBaselineDual:
    def test_two_loads_serviced_in_one_cycle(self):
        stats, interface = build(BaselineDualLoadInterface)
        interface.begin_cycle(0)
        interface.submit_load("a", addr(1, 0), 4, 0)
        interface.submit_load("b", addr(1, 1), 4, 0)
        assert len(interface.tick(0)) == 2

    def test_write_back_waits_while_two_loads_use_its_bank(self):
        # A bank has two ports: two loads to it are both serviced in one
        # cycle, and a merge-buffer write-back to it waits for the next.
        stats, interface = build(BaselineDualLoadInterface, mb_entries=1)
        for cycle, address in enumerate((addr(1, 0), addr(1, 4))):
            interface.begin_cycle(cycle)
            interface.submit_store(f"st{cycle}", address, 4, cycle)
            interface.commit_store(f"st{cycle}", cycle)
            interface._drain_committed_stores()
        assert len(interface._pending_writebacks) == 1  # line 0 of page 1
        interface.begin_cycle(2)
        interface.submit_load("a", addr(1, 8), 4, 2)  # bank 0, as line 0
        interface.submit_load("b", addr(1, 12), 4, 2)  # bank 0
        assert [tag for tag, _ in interface.tick(2)] == ["a", "b"]
        assert stats.get("interface.mbe_written") == 0
        interface.begin_cycle(3)
        assert interface.tick(3) == []
        assert stats["interface.mbe_written"] == 1

    def test_translations_counted_per_access(self):
        stats, interface = build(BaselineDualLoadInterface)
        interface.begin_cycle(0)
        interface.submit_load("a", addr(1, 0), 4, 0)
        interface.submit_load("b", addr(1, 1), 4, 0)
        interface.submit_store("s", addr(1, 2), 4, 0)
        interface.tick(0)
        assert stats["utlb.lookup"] == 3


class TestMalecInterface:
    def test_group_shares_single_translation(self):
        stats, interface = build(MalecInterface)
        interface.begin_cycle(0)
        for i, tag in enumerate(("a", "b", "c")):
            interface.submit_load(tag, addr(1, i), 4, 0)
        completions = interface.tick(0)
        assert len(completions) == 3
        assert stats["utlb.lookup"] == 1          # one page translation
        assert stats["uwt.read"] == 1             # one way-table read

    def test_different_page_load_waits_for_next_cycle(self):
        stats, interface = build(MalecInterface)
        interface.begin_cycle(0)
        interface.submit_load("same", addr(1, 0), 4, 0)
        interface.submit_load("other", addr(2, 0), 4, 0)
        first = interface.tick(0)
        assert [tag for tag, _ in first] == ["same"]
        interface.begin_cycle(1)
        second = interface.tick(1)
        assert [tag for tag, _ in second] == ["other"]

    def test_same_line_loads_merge_into_one_access(self):
        stats, interface = build(MalecInterface)
        interface.begin_cycle(0)
        interface.submit_load("a", addr(1, 0, 0), 4, 0)
        interface.submit_load("b", addr(1, 0, 8), 4, 0)
        completions = interface.tick(0)
        assert len(completions) == 2
        assert stats["interface.load_accesses"] == 1
        assert stats["interface.loads_merged"] == 1

    def test_second_visit_uses_reduced_access(self):
        stats, interface = build(MalecInterface)
        interface.begin_cycle(0)
        interface.submit_load("first", addr(1, 0), 4, 0)
        interface.tick(0)
        stats.clear()
        interface.begin_cycle(1)
        interface.submit_load("again", addr(1, 0), 4, 1)
        interface.tick(1)
        assert stats["l1.reduced_access"] == 1
        assert stats["l1.tag_read"] == 0
        assert stats["malec.way_known"] == 1

    def test_way_coverage_property(self):
        stats, interface = build(MalecInterface)
        for cycle in range(4):
            interface.begin_cycle(cycle)
            interface.submit_load(f"ld{cycle}", addr(1, cycle % 2), 4, cycle)
            interface.tick(cycle)
        assert 0.0 <= interface.way_coverage <= 1.0
        assert interface.way_coverage > 0

    def test_wdu_mode_predicts_after_training(self):
        stats, interface = build(MalecInterface, way_determination="wdu", wdu_entries=8)
        interface.begin_cycle(0)
        interface.submit_load("first", addr(1, 0), 4, 0)
        interface.tick(0)
        interface.begin_cycle(1)
        interface.submit_load("again", addr(1, 0), 4, 1)
        interface.tick(1)
        assert stats["wdu.lookup"] >= 2
        assert stats["malec.way_known"] >= 1

    def test_no_way_determination_mode(self):
        stats, interface = build(MalecInterface, way_determination="none")
        interface.begin_cycle(0)
        interface.submit_load("a", addr(1, 0), 4, 0)
        interface.tick(0)
        assert stats["l1.reduced_access"] == 0
        assert interface.way_coverage == 0.0

    def test_invalid_way_determination_rejected(self):
        with pytest.raises(ValueError):
            build(MalecInterface, way_determination="oracle")

    def test_mbe_travels_through_input_buffer(self):
        stats, interface = build(MalecInterface, mb_entries=1)
        cycle = 0
        for index in range(2):
            interface.begin_cycle(cycle)
            interface.submit_store(f"st{index}", addr(7, index), 4, cycle)
            interface.commit_store(f"st{index}", cycle)
            interface.tick(cycle)
            cycle += 1
        run_cycles(interface, 6, start=cycle)
        assert stats["input_buffer.mbe_in"] >= 1
        assert stats["interface.mbe_written"] >= 1

    def test_split_buffer_lookups_counted(self):
        stats, interface = build(MalecInterface)
        interface.begin_cycle(0)
        interface.submit_load("a", addr(1, 0), 4, 0)
        interface.tick(0)
        assert stats["sb.lookup_offset"] == 1
        assert stats["sb.lookup_page_shared"] == 1
        assert stats["mb.lookup_offset"] == 1

    def test_finalize_flushes_mbe_backlog(self):
        stats, interface = build(MalecInterface, mb_entries=1)
        for index in range(3):
            interface.begin_cycle(index)
            interface.submit_store(f"st{index}", addr(8, index), 4, index)
            interface.commit_store(f"st{index}", index)
            interface.tick(index)
        interface.finalize(100)
        assert interface.quiescent()
        assert stats["interface.mbe_written"] == 3

    def test_back_pressure_from_input_buffer(self):
        stats, interface = build(MalecInterface)
        page = 0
        for cycle in range(2):
            interface.begin_cycle(cycle)
            # Three loads (the three address slots) to three pages: one page
            # group is serviced per cycle, the other loads are held.
            while interface.reserve_load_slot():
                assert interface.can_accept_load()
                interface.submit_load(f"ld{page}", addr(page, 0), 4, cycle)
                page += 1
            interface.tick(cycle)
        assert page == 6
        buffer = interface.input_buffer
        assert len(buffer._held) > buffer.held_capacity
        assert not interface.can_accept_load()
