"""Tests for Page-Based Memory Access Grouping: the Input Buffer and the
Arbitration Unit, which hold each load as a ``(tag, address, size)`` tuple
and an MBE as its line address."""

import itertools

import pytest

from repro.cache.l1_cache import L1DataCache
from repro.core.arbitration import ArbitrationUnit
from repro.core.input_buffer import InputBuffer
from repro.core.way_table import WayTableHierarchy
from repro.interfaces.malec import MalecInterface
from repro.memory.address import DEFAULT_LAYOUT
from repro.stats import StatCounters
from repro.tlb.tlb import TLBHierarchy

layout = DEFAULT_LAYOUT

#: load tags are unique within a run; the Input Buffer retires by equality
_tags = itertools.count()


def load(page: int, line: int, offset: int = 0):
    """A 4-byte load of ``page``/``line``/``offset`` with a fresh tag."""
    return (next(_tags), layout.compose_line(page, line, offset), 4)


def mbe_line(page: int, line: int) -> int:
    """The line address of an MBE."""
    return layout.compose_line(page, line)


def line_of(entry) -> int:
    return layout.line_in_page(entry[1])


class TestInputBuffer:
    def test_groups_by_leader_page(self):
        buffer = InputBuffer()
        buffer.add_load(*load(1, 0))
        buffer.add_load(*load(2, 0))
        buffer.add_load(*load(1, 5))
        page, loads, mbe = buffer.select_group()
        assert page == 1
        assert [line_of(entry) for entry in loads] == [0, 5]
        assert mbe is None

    def test_held_loads_have_priority_over_new(self):
        buffer = InputBuffer()
        buffer.add_load(*load(1, 0))
        buffer.select_group()
        buffer.retire([], False)    # nothing serviced
        buffer.end_cycle()          # load from page 1 becomes "held"
        buffer.add_load(*load(2, 0))
        page, _, _ = buffer.select_group()
        assert page == 1

    def test_mbe_lowest_priority_but_joins_matching_group(self):
        buffer = InputBuffer()
        buffer.add_mbe(mbe_line(3, 0))
        leader = load(3, 4)
        buffer.add_load(*leader)
        page, loads, mbe = buffer.select_group()
        assert page == 3
        assert loads == [leader]  # the load is the leader
        assert mbe == mbe_line(3, 0)

    def test_mbe_alone_forms_group(self):
        buffer = InputBuffer()
        buffer.add_mbe(mbe_line(9, 0))
        assert buffer.select_group() == (9, [], mbe_line(9, 0))

    def test_mbe_at_address_zero_joins_group(self):
        # Line 0 is an address: an MBE there is a member, not a missing one.
        buffer = InputBuffer()
        buffer.add_mbe(0)
        assert buffer.select_group() == (0, [], 0)
        _, _, mbe_granted, _ = ArbitrationUnit().arbitrate([], 0)
        assert mbe_granted

    def test_mbe_of_another_page_waits(self):
        buffer = InputBuffer()
        buffer.add_mbe(mbe_line(4, 0))
        buffer.add_load(*load(3, 0))
        _, _, mbe = buffer.select_group()
        assert mbe is None
        assert not buffer.can_accept_mbe()

    def test_retire_and_end_cycle(self):
        buffer = InputBuffer(held_capacity=2)
        first = load(1, 0)
        second = load(2, 0)
        buffer.add_load(*first)
        buffer.add_load(*second)
        _, loads, _ = buffer.select_group()
        buffer.retire(loads, False)
        held = buffer.end_cycle()
        assert held == 1                       # the page-2 load is carried over
        assert buffer.select_group() == (2, [second], None)

    def test_retire_frees_the_serviced_mbe(self):
        stats = StatCounters()
        buffer = InputBuffer(stats=stats)
        buffer.add_mbe(mbe_line(1, 0))
        buffer.retire([], True)
        assert buffer.can_accept_mbe() and buffer.empty
        assert stats["input_buffer.mbe_out"] == 1

    def test_back_pressure_when_held_storage_full(self):
        # The MALEC interface stalls address computation once the Input
        # Buffer holds more loads than its storage (plus the one in flight).
        interface = MalecInterface(
            L1DataCache(), TLBHierarchy(), input_buffer_capacity=1
        )
        buffer = interface.input_buffer
        buffer.add_load(*load(0, 0))
        buffer.end_cycle()
        assert interface.can_accept_load()
        buffer.add_load(*load(1, 0))
        buffer.end_cycle()
        assert not interface.can_accept_load()

    def test_single_mbe_slot(self):
        buffer = InputBuffer()
        buffer.add_mbe(mbe_line(1, 0))
        assert not buffer.can_accept_mbe()
        with pytest.raises(RuntimeError):
            buffer.add_mbe(mbe_line(2, 0))

    def test_empty_buffer_selects_nothing(self):
        buffer = InputBuffer()
        assert buffer.select_group() is None
        assert buffer.empty

    def test_page_comparison_events_counted(self):
        stats = StatCounters()
        buffer = InputBuffer(stats=stats)
        buffer.add_load(*load(1, 0))
        buffer.add_load(*load(1, 1))
        buffer.add_load(*load(2, 0))
        buffer.select_group()
        assert stats["input_buffer.page_compare"] == 2


class TestArbitrationUnit:
    @staticmethod
    def _group(*loads, mbe=None):
        """``(loads, mbe)`` of the page group the Input Buffer selects."""
        buffer = InputBuffer()
        if mbe is not None:
            buffer.add_mbe(mbe)
        for entry in loads:
            buffer.add_load(*entry)
        return buffer.select_group()[1:]

    @staticmethod
    def _rejected(loads, serviced):
        return [entry for entry in loads if entry not in serviced]

    @staticmethod
    def _merged(bank_requests):
        return sum(len(merged) for _, merged, _ in bank_requests)

    def test_distributes_over_banks(self):
        arb = ArbitrationUnit()
        loads, _ = self._group(load(1, 0), load(1, 1), load(1, 2))
        bank_requests, serviced, mbe_granted, _ = arb.arbitrate(loads)
        assert len(bank_requests) == 3
        assert {layout.bank_index(primary[1]) for primary, _, _ in bank_requests} == {0, 1, 2}
        assert serviced == loads and not mbe_granted

    def test_bank_conflict_rejects_lower_priority(self):
        arb = ArbitrationUnit(merge_granularity="none")
        loads, _ = self._group(load(1, 0), load(1, 4))  # both bank 0
        bank_requests, serviced, _, _ = arb.arbitrate(loads)
        assert len(bank_requests) == 1
        assert self._rejected(loads, serviced) == [loads[1]]

    def test_same_line_loads_merge(self):
        arb = ArbitrationUnit()
        loads, _ = self._group(load(1, 0, 0), load(1, 0, 8))
        bank_requests, serviced, _, _ = arb.arbitrate(loads)
        assert len(bank_requests) == 1
        assert self._merged(bank_requests) == 1
        assert serviced == loads

    def test_subblock_pair_granularity(self):
        arb = ArbitrationUnit(merge_granularity="subblock_pair")
        loads, _ = self._group(load(1, 0, 0), load(1, 0, 48))
        bank_requests, serviced, _, _ = arb.arbitrate(loads)
        # Same line but different sub-block pair: cannot merge, bank conflict.
        assert self._merged(bank_requests) == 0
        assert len(self._rejected(loads, serviced)) == 1

    def test_line_granularity_merges_across_subblocks(self):
        arb = ArbitrationUnit(merge_granularity="line")
        loads, _ = self._group(load(1, 0, 0), load(1, 0, 48))
        bank_requests, _, _, _ = arb.arbitrate(loads)
        assert self._merged(bank_requests) == 1

    def test_result_bus_limit(self):
        arb = ArbitrationUnit(result_buses=2, merge_granularity="none")
        loads, _ = self._group(*(load(1, line) for line in range(4)))
        _, serviced, _, _ = arb.arbitrate(loads)
        assert len(serviced) == 2
        assert len(self._rejected(loads, serviced)) == 2

    def test_merge_window_limits_comparisons(self):
        arb = ArbitrationUnit(merge_window=1)
        loads, _ = self._group(
            load(1, 0, 0),
            load(1, 1, 0),
            load(1, 0, 8),  # same line as leader but outside window
        )
        bank_requests, _, _, _ = arb.arbitrate(loads)
        assert self._merged(bank_requests) == 0

    def test_mbe_takes_bank_without_result_bus(self):
        arb = ArbitrationUnit(result_buses=3)
        loads, mbe = self._group(load(1, 1), load(1, 2), load(1, 3), mbe=mbe_line(1, 0))
        bank_requests, serviced, mbe_granted, _ = arb.arbitrate(loads, mbe)
        # Three loads hold all three result buses; the MBE still writes bank 0.
        assert serviced == loads and len(bank_requests) == 3
        assert mbe_granted

    def test_mbe_bank_conflict_rejected(self):
        arb = ArbitrationUnit()
        loads, mbe = self._group(load(1, 0), mbe=mbe_line(1, 4))  # both bank 0
        _, serviced, mbe_granted, _ = arb.arbitrate(loads, mbe)
        assert mbe is not None and not mbe_granted
        assert serviced == loads

    @staticmethod
    def _way_entry(page: int, line: int, way: int):
        """The uWT entry of ``page``, knowing ``way`` for ``line`` alone."""
        tables = WayTableHierarchy(TLBHierarchy())
        frame, _ = tables.translation.translate_page_pair(page)
        tables.on_line_fill(layout.compose_line(frame, line), way)
        return tables.predict_page(page)

    def test_way_hints_assigned_from_entry(self):
        arb = ArbitrationUnit()
        entry = self._way_entry(1, line=1, way=2)
        loads, _ = self._group(load(1, 1), load(1, 2))
        bank_requests, _, _, _ = arb.arbitrate(loads, way_entry=entry)
        hints = {line_of(primary): hint for primary, _, hint in bank_requests}
        assert hints[1] == 2
        assert hints[2] is None

    def test_merged_loads_share_way_hint(self):
        arb = ArbitrationUnit()
        entry = self._way_entry(1, line=1, way=3)
        loads, _ = self._group(load(1, 1, 0), load(1, 1, 8))
        bank_requests, serviced, _, _ = arb.arbitrate(loads, way_entry=entry)
        # One bank access, one hint: the merged load rides on the primary's.
        assert len(bank_requests) == 1 and bank_requests[0][2] == 3
        assert bank_requests[0][1] == [loads[1]] and serviced == loads

    def test_granted_mbe_gets_way_hint(self):
        arb = ArbitrationUnit()
        entry = self._way_entry(1, line=1, way=2)
        loads, mbe = self._group(load(1, 2), mbe=mbe_line(1, 1))
        _, _, mbe_granted, mbe_hint = arb.arbitrate(loads, mbe, entry)
        assert mbe_granted and mbe_hint == 2

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            ArbitrationUnit(result_buses=0)
        with pytest.raises(ValueError):
            ArbitrationUnit(merge_window=-1)
        with pytest.raises(ValueError):
            ArbitrationUnit(merge_granularity="bogus")
