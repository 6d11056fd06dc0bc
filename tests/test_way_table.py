"""Tests for Page-Based Way Determination (way tables) and the WDU baseline."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.l1_cache import L1DataCache
from repro.core.way_table import WayTableHierarchy
from repro.core.wdu import WayDeterminationUnit
from repro.memory.address import DEFAULT_LAYOUT
from repro.stats import StatCounters
from repro.tlb.tlb import TLBHierarchy

layout = DEFAULT_LAYOUT


def addr(page: int, line: int, offset: int = 0) -> int:
    return layout.compose_line(page, line, offset)


def predicted_way(tables, virtual_page: int, line_in_page: int):
    """The way the tables determine for one line of a translated page."""
    codes, offset = tables.predict_page(virtual_page)
    code = codes[offset + line_in_page]  # the way plus one, 0 for unknown
    return code - 1 if code else None


#: the virtual page whose uWT entry the entry tests below exercise
PAGE = 5


def entry_system(**tlb_sizes):
    """Way tables whose TLBs have translated ``PAGE``.

    Returns ``(stats, tables, frame)``, ``frame`` being the page's
    physical page: ``tables.on_line_fill(addr(frame, line), way)`` sets
    the way of one line of ``PAGE``'s entry.
    """
    stats = StatCounters()
    tables = WayTableHierarchy(TLBHierarchy(stats=stats, **tlb_sizes), stats=stats)
    frame, _ = tables.translation.translate_page_pair(PAGE)
    return stats, tables, frame


class TestWayTableEntry:
    """One entry's codes, set by line fills and cleared by line evictions
    and TLB replacements."""

    def test_initially_unknown(self):
        _, tables, _ = entry_system()
        for line in range(layout.lines_per_page):
            assert predicted_way(tables, PAGE, line) is None

    def test_update_and_lookup(self):
        _, tables, frame = entry_system()
        tables.on_line_fill(addr(frame, 5), way=3)
        assert predicted_way(tables, PAGE, 5) == 3

    def test_excluded_way_rotates_per_line_group(self):
        stats, tables, frame = entry_system()
        for line, excluded in ((0, 0), (3, 0), (4, 1), (8, 2), (12, 3), (16, 0)):
            tables.on_line_fill(addr(frame, line), way=excluded)
            assert predicted_way(tables, PAGE, line) is None
            tables.on_line_fill(addr(frame, line), way=(excluded + 1) % 4)
            assert predicted_way(tables, PAGE, line) == (excluded + 1) % 4
        assert stats["way_pred.unencodable_way"] == 6

    def test_excluded_way_cannot_be_encoded(self):
        stats, tables, frame = entry_system()
        # Line 4 excludes way 1 (Sec. V).
        tables.on_line_fill(addr(frame, 4), way=1)
        assert stats["way_pred.unencodable_way"] == 1
        assert predicted_way(tables, PAGE, 4) is None

    def test_invalidate_line(self):
        _, tables, frame = entry_system()
        tables.on_line_fill(addr(frame, 7), way=2)
        tables.on_line_evict(addr(frame, 7), way=2)
        assert predicted_way(tables, PAGE, 7) is None

    def test_clear(self):
        # One uTLB and two TLB slots: the next page takes the empty TLB slot
        # and evicts PAGE from the uTLB, which writes PAGE's codes back to
        # the WT.  Later pages evict PAGE from the TLB, clearing that entry.
        stats, tables, frame = entry_system(utlb_entries=1, tlb_entries=2)
        tables.on_line_fill(addr(frame, 7), way=2)
        tables.on_line_fill(addr(frame, 9), way=3)
        tlb = tables.translation.tlb
        slot = tlb.lookup(PAGE, count_event=False)
        entry = slice(slot * layout.lines_per_page, (slot + 1) * layout.lines_per_page)
        tables.translation.translate_page_pair(PAGE + 1)
        assert stats["uwt.writeback"] == 1
        assert (tables.wt[entry][7], tables.wt[entry][9]) == (3, 4)  # way + 1
        for page in range(PAGE + 2, PAGE + 66):
            tables.translation.translate_page_pair(page)
            if tlb.lookup(PAGE, count_event=False) is None:
                break
        else:
            pytest.fail("PAGE never left the TLB")
        assert stats["wt.page_invalidated"] == page - (PAGE + 1)
        assert tlb.lookup(page, count_event=False) == slot
        assert tables.wt[entry] == bytes(layout.lines_per_page)
        # Neither the page that took the slot nor PAGE, fetched again,
        # inherits the lost codes.
        for line in range(layout.lines_per_page):
            assert predicted_way(tables, page, line) is None
        tables.translation.translate_page_pair(PAGE)
        for line in range(layout.lines_per_page):
            assert predicted_way(tables, PAGE, line) is None

    def test_copy_from(self):
        # A uTLB eviction writes the entry back to the WT, and a uTLB refill
        # copies it into the uWT again.
        stats, tables, frame = entry_system(utlb_entries=1)
        tables.on_line_fill(addr(frame, 1), way=2)
        tables.translation.translate_page_pair(PAGE + 1)
        assert predicted_way(tables, PAGE + 1, 1) is None
        tables.translation.translate_page_pair(PAGE)
        assert predicted_way(tables, PAGE, 1) == 2
        assert stats["uwt.writeback"] == 2

    def test_storage_bits_match_paper(self):
        _, tables, _ = entry_system()
        assert tables.storage_bits == 128     # packed 2-bit format (Fig. 3)
        assert tables.naive_storage_bits == 192  # separate valid + way bits
        assert tables.storage_bits == tables.naive_storage_bits * 2 // 3

    def test_bad_line_index_rejected(self):
        # A line outside the address space, or a way outside the cache.
        _, tables, frame = entry_system()
        with pytest.raises(ValueError):
            tables.on_line_evict(-layout.line_bytes, 0)
        with pytest.raises(ValueError):
            tables.on_line_fill(layout.max_address + 1, 0)
        with pytest.raises(ValueError):
            tables.on_line_fill(addr(frame, 0), 4)

    @given(
        st.integers(min_value=0, max_value=63),
        st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=200)
    def test_roundtrip_or_unknown(self, line, way):
        """Any (line, way) either round-trips exactly or reports unknown."""
        stats, tables, frame = entry_system()
        tables.on_line_fill(addr(frame, line), way)
        if not stats["way_pred.unencodable_way"]:
            assert predicted_way(tables, PAGE, line) == way
        else:
            # the line's excluded way (Sec. V)
            assert way == (line // layout.l1_banks) % layout.l1_associativity
            assert predicted_way(tables, PAGE, line) is None


class TestWayTableHierarchy:
    def _system(self, feedback=True):
        stats = StatCounters()
        translation = TLBHierarchy(stats=stats)
        l1 = L1DataCache(stats=stats, restrict_way_allocation=True)
        tables = WayTableHierarchy(translation, stats=stats, enable_feedback_update=feedback)
        tables.attach_to_cache(l1)
        return stats, translation, l1, tables

    def test_fill_updates_way_information(self):
        stats, translation, l1, tables = self._system()
        paddr, _ = translation.translate_pair(addr(5, 0))
        way = l1.load_parts(paddr)[1]  # miss + fill -> tables learn the way
        assert predicted_way(tables, 5, layout.line_in_page(paddr)) == way

    def test_eviction_clears_validity(self):
        stats, translation, l1, tables = self._system()
        translation.translate_pair(addr(5, 0))
        paddr, _ = translation.translate_pair(addr(5, 0))
        way = l1.load_parts(paddr)[1]
        tables.on_line_evict(layout.line_address(paddr), way)
        assert predicted_way(tables, 5, layout.line_in_page(paddr)) is None

    def test_prediction_allows_reduced_access(self):
        stats, translation, l1, tables = self._system()
        paddr, _ = translation.translate_pair(addr(6, 3))
        l1.load_parts(paddr)
        way = predicted_way(tables, 6, layout.line_in_page(paddr))
        assert way is not None
        hit, _, _, reduced, _, hint_wrong = l1.load_parts(paddr, way_hint=way)
        assert hit and reduced and not hint_wrong

    def test_feedback_update_after_unknown_conventional_hit(self):
        stats, translation, l1, tables = self._system(feedback=True)
        paddr, _ = translation.translate_pair(addr(7, 2))
        way = l1.load_parts(paddr)[1]  # fill
        line = layout.line_in_page(paddr)
        # Forget the way (simulates a page whose WT entry was lost).
        tables.on_line_evict(layout.line_address(paddr), way)
        assert predicted_way(tables, 7, line) is None
        tables.feedback_conventional_hit(paddr, way)
        assert predicted_way(tables, 7, line) == way

    def test_feedback_disabled_is_a_noop(self):
        stats, translation, l1, tables = self._system(feedback=False)
        paddr, _ = translation.translate_pair(addr(7, 2))
        way = l1.load_parts(paddr)[1]
        tables.on_line_evict(layout.line_address(paddr), way)
        assert predicted_way(tables, 7, layout.line_in_page(paddr)) is None
        tables.feedback_conventional_hit(paddr, way)
        assert predicted_way(tables, 7, layout.line_in_page(paddr)) is None

    def test_utlb_eviction_writes_entry_back_to_wt(self):
        stats, translation, l1, tables = self._system()
        # Touch page 0 and learn a way.
        paddr, _ = translation.translate_pair(addr(0, 1))
        way = l1.load_parts(paddr)[1]
        line = layout.line_in_page(paddr)
        # Touch enough other pages to push page 0 out of the 16-entry uTLB.
        for page in range(1, 40):
            translation.translate_pair(addr(page, 0))
        # The information must survive in the WT and refill the uWT on re-touch.
        assert translation.translate_pair(addr(0, 1))[1] == 1  # a uTLB miss, TLB hit
        assert predicted_way(tables, 0, line) == way

    def test_tlb_eviction_loses_way_information(self):
        stats = StatCounters()
        translation = TLBHierarchy(utlb_entries=2, tlb_entries=4, stats=stats)
        l1 = L1DataCache(stats=stats, restrict_way_allocation=True)
        tables = WayTableHierarchy(translation, stats=stats)
        tables.attach_to_cache(l1)
        paddr, _ = translation.translate_pair(addr(0, 1))
        l1.load_parts(paddr)
        for page in range(1, 30):
            translation.translate_pair(addr(page, 0))
        # Page 0 left the 4-entry TLB entirely: no entry covers it any more,
        # and re-translating it allocates a fresh, all-invalid entry.
        assert translation.utlb.lookup(0, count_event=False) is None
        assert translation.tlb.lookup(0, count_event=False) is None
        translation.translate_pair(addr(0, 1))
        assert predicted_way(tables, 0, layout.line_in_page(paddr)) is None
        assert stats["wt.page_invalidated"] >= 1


class TestWayDeterminationUnit:
    def test_unknown_then_known(self):
        wdu = WayDeterminationUnit(entries=4)
        address = addr(3, 1)
        assert wdu.predict(address) is None
        wdu.record(address, way=2)
        assert wdu.predict(address) == 2

    def test_lru_eviction_by_capacity(self):
        wdu = WayDeterminationUnit(entries=2)
        wdu.record(addr(1, 0), 0)
        wdu.record(addr(1, 1), 1)
        wdu.record(addr(1, 2), 2)  # evicts the oldest entry
        assert wdu.predict(addr(1, 0)) is None
        assert wdu.predict(addr(1, 2)) == 2
        assert wdu.occupancy == 2

    def test_cache_eviction_invalidates_entry(self):
        wdu = WayDeterminationUnit(entries=8)
        wdu.record(addr(2, 0), 1)
        wdu.on_line_evict(addr(2, 0), 1)
        assert wdu.predict(addr(2, 0)) is None

    def test_attach_to_cache_tracks_fills(self):
        stats = StatCounters()
        l1 = L1DataCache(stats=stats)
        wdu = WayDeterminationUnit(entries=16, stats=stats)
        wdu.attach_to_cache(l1)
        way = l1.load_parts(addr(4, 0))[1]
        assert wdu.predict(addr(4, 0)) == way

    def test_rejects_bad_way(self):
        wdu = WayDeterminationUnit(entries=4)
        with pytest.raises(ValueError):
            wdu.record(addr(0, 0), 4)

    def test_storage_scales_with_entries(self):
        small = WayDeterminationUnit(entries=8).storage_bits
        large = WayDeterminationUnit(entries=32).storage_bits
        assert large == 4 * small

    def test_coverage_counts(self):
        wdu = WayDeterminationUnit(entries=4)
        wdu.predict(addr(0, 0))
        wdu.record(addr(0, 0), 1)
        wdu.predict(addr(0, 0))
        assert (wdu.stats["way_pred.known"], wdu.stats["way_pred.lookup"]) == (1, 2)
