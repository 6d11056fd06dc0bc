"""Property-based invariants for the cache, TLB and way-determination logic.

The properties are the structural guarantees the paper's Sec. IV/V argument
rests on:

* a set-associative lookup immediately after an insert always hits, in the
  way the insert reported;
* true-LRU replacement never evicts the most-recently-used line, and the
  flat cache array picks the same ways and evicts the same lines as a
  per-set most-recently-used list, excluded ways included;
* way-table predictions are *valid-or-unknown* — a known way always matches
  the tag array (this is what makes tag-bypassed "reduced" accesses safe);
* a TLB lookup after an insert hits, and the reverse (physical) index stays
  consistent with the forward one.

Each invariant is written as a plain checker driven by ``hypothesis`` when
it is installed, and by a seeded ``random`` sweep otherwise, so the suite
keeps its property coverage on minimal environments.
"""

from __future__ import annotations

import random

import pytest

from repro.cache.set_assoc import SetAssociativeArray
from repro.memory.address import AddressLayout
from repro.memory.hierarchy import MemoryHierarchy
from repro.core.way_table import WayTableHierarchy
from repro.stats import StatCounters
from repro.tlb.tlb import TLBHierarchy

try:  # pragma: no cover - which branch runs depends on the environment
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover
    HAVE_HYPOTHESIS = False

#: cases per property in the stdlib-random fallback sweep
FALLBACK_CASES = 25


def fallback_seeds():
    """Deterministic seeds for the no-hypothesis sweep."""
    return pytest.mark.parametrize("seed", range(FALLBACK_CASES))


# ----------------------------------------------------------------------
# Invariant checkers (shared by both drivers)
# ----------------------------------------------------------------------
def check_lookup_after_insert_hits(num_sets: int, ways: int, seed: int) -> None:
    """Filling a tag and looking it up immediately must hit in that way."""
    rng = random.Random(seed)
    array = SetAssociativeArray(num_sets=num_sets, ways=ways)
    for _ in range(4 * num_sets * ways):
        set_index = rng.randrange(num_sets)
        tag = rng.randrange(8 * ways)
        way, _, _ = array.fill(set_index, tag)
        assert array.find_way(set_index, tag, update_replacement=False) == way, (
            set_index,
            tag,
        )
        assert tag in array.valid_tags(set_index)


def check_lru_never_evicts_mru(ways: int, seed: int) -> None:
    """With every way valid, a fill never evicts the last-used line."""
    rng = random.Random(seed)
    array = SetAssociativeArray(num_sets=1, ways=ways)
    for tag in range(ways):
        array.fill(0, tag)
    for new_tag in range(ways, 9 * ways):
        last_used = rng.choice(array.valid_tags(0))
        array.find_way(0, last_used)
        _, evicted_tag, _ = array.fill(0, new_tag)
        assert evicted_tag != last_used or ways == 1


class ReferenceLRU:
    """Plain true LRU: per set, a list of ways ordered most recently used first."""

    def __init__(self, num_sets: int, ways: int) -> None:
        self.order = [list(range(ways)) for _ in range(num_sets)]
        self.lines = [[None] * ways for _ in range(num_sets)]  # (tag, dirty)

    def find_way(self, set_index, tag, update_replacement=True):
        for way, line in enumerate(self.lines[set_index]):
            if line is not None and line[0] == tag:
                if update_replacement:
                    self.order[set_index].remove(way)
                    self.order[set_index].insert(0, way)
                return way
        return None

    def fill(self, set_index, tag, dirty=False, excluded_way=None):
        lines = self.lines[set_index]
        way = self.find_way(set_index, tag)
        if way is not None:
            lines[way] = (tag, lines[way][1] or dirty)
            return way, None, False
        allowed = [w for w in reversed(self.order[set_index]) if w != excluded_way]
        way = next((w for w in allowed if lines[w] is None), allowed[0])
        evicted = lines[way] or (None, False)
        lines[way] = (tag, dirty)
        self.find_way(set_index, tag)
        return (way,) + evicted


def check_lru_matches_reference_model(num_sets: int, ways: int, seed: int) -> None:
    """The array answers a random fill/lookup mix exactly as :class:`ReferenceLRU`."""
    rng = random.Random(seed)
    array = SetAssociativeArray(num_sets=num_sets, ways=ways)
    model = ReferenceLRU(num_sets, ways)
    for step in range(16 * num_sets * ways):
        set_index = rng.randrange(num_sets)
        tag = rng.randrange(2 * ways)  # re-fills of resident tags and evictions
        if rng.random() < 0.5:
            excluded = rng.randrange(ways) if ways > 1 and rng.random() < 0.5 else None
            dirty = rng.random() < 0.3
            args = (set_index, tag, dirty, excluded)
            assert array.fill(*args) == model.fill(*args), (step, args)
        else:
            args = (set_index, tag, rng.random() < 0.5)
            assert array.find_way(*args) == model.find_way(*args), (step, args)


def check_way_predictions_match_tag_array(accesses: int, seed: int) -> None:
    """A *known* way-table prediction always matches the cache's tag array.

    This is the safety property behind reduced (tag-bypassed) accesses: the
    paper's way tables are "valid-or-unknown", never wrong (Sec. V).
    """
    rng = random.Random(seed)
    stats = StatCounters()
    layout = AddressLayout()
    hierarchy = MemoryHierarchy(layout=layout, stats=stats)
    translation = TLBHierarchy(layout=layout, stats=stats, seed=seed)
    way_tables = WayTableHierarchy(translation, layout=layout, stats=stats)
    way_tables.attach_to_cache(hierarchy.l1)

    pages = [rng.randrange(1 << 10) for _ in range(6)]
    for _ in range(accesses):
        virtual = layout.compose_line(
            rng.choice(pages),
            rng.randrange(layout.lines_per_page),
            rng.randrange(0, layout.line_bytes, 4),
        )
        physical, _ = translation.translate_pair(virtual)
        line_in_page = layout.line_in_page(virtual)
        codes, offset = way_tables.predict_page(layout.page_id(virtual))
        way = codes[offset + line_in_page] - 1  # a code is the way plus one
        physical_line = layout.line_address(physical)
        if way >= 0:
            assert hierarchy.l1.way_of(physical_line) == way, (hex(virtual), way)
        # Access (and possibly fill) the line, mutating cache + way tables.
        hierarchy.l1.load_parts(physical)


def check_tlb_insert_lookup_consistency(entries: int, seed: int) -> None:
    """Lookups after inserts hit, and the reverse index mirrors the forward."""
    rng = random.Random(seed)
    stats = StatCounters()
    translation = TLBHierarchy(
        utlb_entries=max(2, entries // 4),
        tlb_entries=entries,
        stats=stats,
        seed=seed,
    )
    tlb = translation.tlb
    for _ in range(6 * entries):
        vpage = rng.randrange(1 << 12)
        ppage = translation.page_table.translate_page(vpage)
        # Insert only a page the level missed, as translate_page_pair does.
        slot = tlb.lookup(vpage, count_event=False)
        if slot is None:
            slot = tlb.insert(vpage, ppage)
        assert tlb.lookup(vpage, count_event=False) == slot
        assert tlb._ppages[slot] == ppage
        assert tlb.reverse_lookup(ppage, count_event=False) == slot
        assert tlb.occupancy <= entries
    # Every resident virtual page must be reachable both ways.
    for vpage in tlb._by_vpage:
        slot = tlb.lookup(vpage, count_event=False)
        assert slot is not None and tlb._vpages[slot] == vpage
        assert tlb.reverse_lookup(tlb._ppages[slot], count_event=False) == slot


# ----------------------------------------------------------------------
# Drivers
# ----------------------------------------------------------------------
if HAVE_HYPOTHESIS:

    COMMON = dict(
        deadline=None,
        max_examples=25,
        suppress_health_check=[HealthCheck.too_slow],
    )

    class TestPropertiesHypothesis:
        @given(
            num_sets=st.integers(min_value=1, max_value=32),
            ways=st.integers(min_value=1, max_value=8),
            seed=st.integers(min_value=0, max_value=2**20),
        )
        @settings(**COMMON)
        def test_lookup_after_insert_hits(self, num_sets, ways, seed):
            check_lookup_after_insert_hits(num_sets, ways, seed)

        @given(
            ways=st.integers(min_value=1, max_value=16),
            seed=st.integers(min_value=0, max_value=2**20),
        )
        @settings(**COMMON)
        def test_lru_never_evicts_mru(self, ways, seed):
            check_lru_never_evicts_mru(ways, seed)

        @given(
            num_sets=st.integers(min_value=1, max_value=8),
            ways=st.integers(min_value=1, max_value=16),
            seed=st.integers(min_value=0, max_value=2**20),
        )
        @settings(**COMMON)
        def test_lru_matches_reference_model(self, num_sets, ways, seed):
            check_lru_matches_reference_model(num_sets, ways, seed)

        @given(seed=st.integers(min_value=0, max_value=2**20))
        @settings(deadline=None, max_examples=10)
        def test_way_predictions_match_tag_array(self, seed):
            check_way_predictions_match_tag_array(accesses=120, seed=seed)

        @given(
            entries=st.integers(min_value=2, max_value=64),
            seed=st.integers(min_value=0, max_value=2**20),
        )
        @settings(**COMMON)
        def test_tlb_insert_lookup_consistency(self, entries, seed):
            check_tlb_insert_lookup_consistency(entries, seed)

else:  # pragma: no cover - exercised only without hypothesis

    class TestPropertiesFallback:
        @fallback_seeds()
        def test_lookup_after_insert_hits(self, seed):
            rng = random.Random(1000 + seed)
            check_lookup_after_insert_hits(
                num_sets=rng.randrange(1, 33), ways=rng.randrange(1, 9), seed=seed
            )

        @fallback_seeds()
        def test_lru_never_evicts_mru(self, seed):
            rng = random.Random(2000 + seed)
            check_lru_never_evicts_mru(ways=rng.randrange(1, 17), seed=seed)

        @fallback_seeds()
        def test_lru_matches_reference_model(self, seed):
            rng = random.Random(4000 + seed)
            check_lru_matches_reference_model(
                num_sets=rng.randrange(1, 9), ways=rng.randrange(1, 17), seed=seed
            )

        @pytest.mark.parametrize("seed", range(8))
        def test_way_predictions_match_tag_array(self, seed):
            check_way_predictions_match_tag_array(accesses=120, seed=seed)

        @fallback_seeds()
        def test_tlb_insert_lookup_consistency(self, seed):
            rng = random.Random(3000 + seed)
            check_tlb_insert_lookup_consistency(
                entries=rng.randrange(2, 65), seed=seed
            )
