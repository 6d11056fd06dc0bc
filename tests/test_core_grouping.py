"""Tests for Page-Based Memory Access Grouping: requests, Input Buffer and
Arbitration Unit."""

import pytest

from repro.core.arbitration import ArbitrationUnit
from repro.core.input_buffer import InputBuffer
from repro.core.request import AccessKind, MemoryAccessRequest
from repro.core.way_table import WayTableHierarchy
from repro.interfaces.malec import MalecInterface
from repro.memory.address import DEFAULT_LAYOUT
from repro.memory.hierarchy import MemoryHierarchy
from repro.stats import StatCounters
from repro.tlb.tlb import TLBHierarchy

layout = DEFAULT_LAYOUT


def load_request(page: int, line: int, offset: int = 0, tag=None):
    return MemoryAccessRequest(
        kind=AccessKind.LOAD,
        virtual_address=layout.compose_line(page, line, offset),
        tag=tag,
    )


def mbe_request(page: int, line: int):
    return MemoryAccessRequest(
        kind=AccessKind.MBE,
        virtual_address=layout.compose_line(page, line),
        size=layout.line_bytes,
    )


class TestMemoryAccessRequest:
    def test_field_accessors(self):
        request = load_request(5, 9, 16)
        assert request.is_load and not request.is_mbe
        assert request.virtual_page == 5
        assert request.line_in_page == 9
        assert request.bank_index == 9 % 4
        assert request.physical_address is None

    def test_attach_translation(self):
        request = load_request(5, 9, 16)
        request.attach_translation(0x777)
        assert layout.page_id(request.physical_address) == 0x777
        assert layout.page_offset(request.physical_address) == layout.page_offset(
            request.virtual_address
        )

    def test_same_page_line_subblock_relations(self):
        a = load_request(5, 9, 0)
        b = load_request(5, 9, 8)
        c = load_request(5, 9, 40)
        d = load_request(5, 10, 0)
        assert a.virtual_page == b.virtual_page
        assert a.same_line_as(b) and a.same_subblock_pair_as(b)
        assert a.same_line_as(c) and not a.same_subblock_pair_as(c)
        assert a.virtual_page == d.virtual_page and not a.same_line_as(d)


class TestInputBuffer:
    def test_groups_by_leader_page(self):
        buffer = InputBuffer()
        buffer.add_load(load_request(1, 0))
        buffer.add_load(load_request(2, 0))
        buffer.add_load(load_request(1, 5))
        page, members = buffer.select_group()
        assert page == 1
        assert [request.line_in_page for request in members] == [0, 5]

    def test_held_loads_have_priority_over_new(self):
        buffer = InputBuffer()
        buffer.add_load(load_request(1, 0))
        buffer.select_group()
        buffer.retire([])           # nothing serviced
        buffer.end_cycle()          # load from page 1 becomes "held"
        buffer.add_load(load_request(2, 0))
        page, _ = buffer.select_group()
        assert page == 1

    def test_mbe_lowest_priority_but_joins_matching_group(self):
        buffer = InputBuffer()
        mbe = mbe_request(3, 0)
        buffer.add_mbe(mbe)
        buffer.add_load(load_request(3, 4))
        page, members = buffer.select_group()
        assert page == 3
        assert members[0].is_load  # the load is the leader
        assert members[-1] is mbe

    def test_mbe_alone_forms_group(self):
        buffer = InputBuffer()
        mbe = mbe_request(9, 0)
        buffer.add_mbe(mbe)
        assert buffer.select_group() == (9, [mbe])

    def test_retire_and_end_cycle(self):
        buffer = InputBuffer(held_capacity=2)
        first = load_request(1, 0)
        second = load_request(2, 0)
        buffer.add_load(first)
        buffer.add_load(second)
        _, members = buffer.select_group()
        buffer.retire(members)
        held = buffer.end_cycle()
        assert held == 1                       # the page-2 load is carried over
        assert buffer.select_group() == (2, [second])

    def test_retire_matches_by_identity(self):
        buffer = InputBuffer()
        serviced = load_request(1, 0, tag=7)
        twin = load_request(1, 0, tag=7)       # equal fields, distinct request
        buffer.add_load(serviced)
        buffer.add_load(twin)
        buffer.retire([serviced])
        assert buffer.end_cycle() == 1
        assert buffer.select_group() == (1, [twin])

    def test_back_pressure_when_held_storage_full(self):
        # The MALEC interface stalls address computation once the Input
        # Buffer holds more loads than its storage (plus the one in flight).
        interface = MalecInterface(
            MemoryHierarchy(), TLBHierarchy(), input_buffer_capacity=1
        )
        buffer = interface.input_buffer
        buffer.add_load(load_request(0, 0))
        buffer.end_cycle()
        assert interface.can_accept_load()
        buffer.add_load(load_request(1, 0))
        buffer.end_cycle()
        assert not interface.can_accept_load()

    def test_single_mbe_slot(self):
        buffer = InputBuffer()
        buffer.add_mbe(mbe_request(1, 0))
        assert not buffer.can_accept_mbe()
        with pytest.raises(RuntimeError):
            buffer.add_mbe(mbe_request(2, 0))

    def test_add_load_type_checked(self):
        buffer = InputBuffer()
        with pytest.raises(ValueError):
            buffer.add_load(mbe_request(0, 0))
        with pytest.raises(ValueError):
            buffer.add_mbe(load_request(0, 0))

    def test_empty_buffer_selects_nothing(self):
        buffer = InputBuffer()
        assert buffer.select_group() is None
        assert buffer.empty

    def test_page_comparison_events_counted(self):
        stats = StatCounters()
        buffer = InputBuffer(stats=stats)
        buffer.add_load(load_request(1, 0))
        buffer.add_load(load_request(1, 1))
        buffer.add_load(load_request(2, 0))
        buffer.select_group()
        assert stats["input_buffer.page_compare"] == 2


class TestArbitrationUnit:
    def _members(self, *requests):
        buffer = InputBuffer()
        for request in requests:
            if request.is_mbe:
                buffer.add_mbe(request)
            else:
                buffer.add_load(request)
        return buffer.select_group()[1]

    @staticmethod
    def _rejected(members, serviced):
        return [request for request in members if request not in serviced]

    @staticmethod
    def _merged(bank_requests):
        return sum(len(bank_request.merged) for bank_request in bank_requests)

    def test_distributes_over_banks(self):
        arb = ArbitrationUnit()
        members = self._members(load_request(1, 0), load_request(1, 1), load_request(1, 2))
        bank_requests, serviced, loads_granted = arb.arbitrate(members)
        assert len(bank_requests) == 3
        assert {br.primary.bank_index for br in bank_requests} == {0, 1, 2}
        assert len(serviced) == 3 and loads_granted == 3

    def test_bank_conflict_rejects_lower_priority(self):
        arb = ArbitrationUnit(merge_granularity="none")
        members = self._members(load_request(1, 0), load_request(1, 4))  # both bank 0
        bank_requests, serviced, _ = arb.arbitrate(members)
        assert len(bank_requests) == 1
        assert self._rejected(members, serviced) == [members[1]]

    def test_same_line_loads_merge(self):
        arb = ArbitrationUnit()
        members = self._members(load_request(1, 0, 0), load_request(1, 0, 8))
        bank_requests, serviced, loads_granted = arb.arbitrate(members)
        assert len(bank_requests) == 1
        assert self._merged(bank_requests) == 1
        assert loads_granted == 2 and serviced == members

    def test_subblock_pair_granularity(self):
        arb = ArbitrationUnit(merge_granularity="subblock_pair")
        members = self._members(load_request(1, 0, 0), load_request(1, 0, 48))
        bank_requests, serviced, _ = arb.arbitrate(members)
        # Same line but different sub-block pair: cannot merge, bank conflict.
        assert self._merged(bank_requests) == 0
        assert len(self._rejected(members, serviced)) == 1

    def test_line_granularity_merges_across_subblocks(self):
        arb = ArbitrationUnit(merge_granularity="line")
        members = self._members(load_request(1, 0, 0), load_request(1, 0, 48))
        bank_requests, _, _ = arb.arbitrate(members)
        assert self._merged(bank_requests) == 1

    def test_result_bus_limit(self):
        arb = ArbitrationUnit(result_buses=2, merge_granularity="none")
        members = self._members(*(load_request(1, line) for line in range(4)))
        _, serviced, loads_granted = arb.arbitrate(members)
        assert loads_granted == 2
        assert len(self._rejected(members, serviced)) == 2

    def test_merge_window_limits_comparisons(self):
        arb = ArbitrationUnit(merge_window=1)
        members = self._members(
            load_request(1, 0, 0),
            load_request(1, 1, 0),
            load_request(1, 0, 8),  # same line as leader but outside window
        )
        bank_requests, _, _ = arb.arbitrate(members)
        assert self._merged(bank_requests) == 0

    def test_mbe_takes_bank_without_result_bus(self):
        arb = ArbitrationUnit(result_buses=4)
        members = self._members(
            load_request(1, 1), load_request(1, 2), load_request(1, 3),
            load_request(1, 5), mbe_request(1, 0),
        )
        bank_requests, _, _ = arb.arbitrate(members)
        writes = [br for br in bank_requests if br.is_write]
        assert len(writes) == 1 and writes[0].primary.bank_index == 0

    def test_mbe_bank_conflict_rejected(self):
        arb = ArbitrationUnit()
        members = self._members(load_request(1, 0), mbe_request(1, 4))  # both bank 0
        _, serviced, _ = arb.arbitrate(members)
        assert members[-1].is_mbe
        assert self._rejected(members, serviced) == [members[-1]]

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
        members = self._members(load_request(1, 1), load_request(1, 2))
        bank_requests, _, _ = arb.arbitrate(members, way_entry=entry)
        hints = {br.primary.line_in_page: br.way_hint for br in bank_requests}
        assert hints[1] == 2
        assert hints[2] is None

    def test_merged_loads_share_way_hint(self):
        arb = ArbitrationUnit()
        entry = self._way_entry(1, line=1, way=3)
        members = self._members(load_request(1, 1, 0), load_request(1, 1, 8))
        bank_requests, serviced, _ = arb.arbitrate(members, way_entry=entry)
        # One bank access, one hint: the merged load rides on the primary's.
        assert len(bank_requests) == 1 and bank_requests[0].way_hint == 3
        assert bank_requests[0].merged == [members[1]] and serviced == members

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            ArbitrationUnit(result_buses=0)
        with pytest.raises(ValueError):
            ArbitrationUnit(merge_window=-1)
        with pytest.raises(ValueError):
            ArbitrationUnit(merge_granularity="bogus")
