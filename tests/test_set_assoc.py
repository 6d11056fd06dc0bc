"""Tests for the flat set-associative array."""

import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.set_assoc import SetAssociativeArray


class TestLookupAndFill:
    def test_miss_then_hit(self):
        array = SetAssociativeArray(num_sets=4, ways=2)
        assert array.find_way(0, tag=7, update_replacement=False) is None
        way, evicted_tag, evicted_dirty = array.fill(0, tag=7)
        assert evicted_tag is None and not evicted_dirty
        assert array.find_way(0, tag=7, update_replacement=False) == way

    def test_fill_existing_refreshes_dirtiness(self):
        array = SetAssociativeArray(num_sets=1, ways=1)
        way1, _, _ = array.fill(0, tag=1)
        way2, evicted_tag, _ = array.fill(0, tag=1, dirty=True)
        assert way1 == way2 and evicted_tag is None
        array.fill(0, tag=1)  # a clean refill keeps the line dirty
        assert array.fill(0, tag=2)[1:] == (1, True)

    def test_eviction_when_set_full(self):
        array = SetAssociativeArray(num_sets=1, ways=2)
        array.fill(0, tag=1)
        array.fill(0, tag=2)
        _, evicted_tag, evicted_dirty = array.fill(0, tag=3)
        assert evicted_tag in (1, 2) and not evicted_dirty
        assert array.occupancy() == 2

    def test_lru_eviction_order(self):
        array = SetAssociativeArray(num_sets=1, ways=2)
        array.fill(0, tag=1)
        array.fill(0, tag=2)
        array.find_way(0, tag=1)  # make tag 1 most recently used
        assert array.fill(0, tag=3)[1] == 2

    def test_excluded_way_respected(self):
        array = SetAssociativeArray(num_sets=1, ways=4)
        for tag in range(4):
            array.fill(0, tag=tag)
        way, _, _ = array.fill(0, tag=99, excluded_way=2)
        assert way != 2

    def test_excluding_the_only_way_rejected(self):
        array = SetAssociativeArray(num_sets=1, ways=1)
        with pytest.raises(ValueError):
            array.fill(0, tag=5, excluded_way=0)

    def test_probe_does_not_touch_replacement(self):
        array = SetAssociativeArray(num_sets=1, ways=2)
        array.fill(0, tag=1)
        array.fill(0, tag=2)
        array.find_way(0, tag=1, update_replacement=False)  # non-updating probe
        assert array.fill(0, tag=3)[1] == 1  # tag 1 stayed LRU despite the probe

    def test_fill_reports_dirty_victim(self):
        array = SetAssociativeArray(num_sets=1, ways=1)
        array.fill(0, tag=1, dirty=True)
        assert array.fill(0, tag=2) == (0, 1, True)
        assert array.fill(0, tag=3) == (0, 2, False)

    def test_empty_set_fills_from_its_last_way_down(self):
        array = SetAssociativeArray(num_sets=2, ways=4)
        assert [array.fill(1, tag)[0] for tag in range(4)] == [3, 2, 1, 0]
        assert array.valid_tags(1) == [3, 2, 1, 0]
        assert array.valid_tags(0) == []

    def test_excluded_empty_way_passes_to_the_next_empty_way(self):
        array = SetAssociativeArray(num_sets=1, ways=4)
        assert array.fill(0, tag=1, excluded_way=3) == (2, None, False)
        assert array.fill(0, tag=2, excluded_way=3) == (1, None, False)
        assert array.fill(0, tag=3) == (3, None, False)  # empty ways still win

    def test_same_tag_in_two_sets_is_two_lines(self):
        array = SetAssociativeArray(num_sets=2, ways=1)
        array.fill(0, tag=5, dirty=True)
        array.fill(1, tag=5)
        assert array.occupancy() == 2
        assert array.fill(1, tag=6) == (0, 5, False)  # set 1's copy was clean
        assert array.find_way(0, tag=5) == 0  # and set 0's is still resident


class TestDirtyAndInvalidate:
    def test_mark_dirty(self):
        array = SetAssociativeArray(num_sets=1, ways=1)
        way, _, _ = array.fill(0, tag=1)
        array.mark_dirty(0, way)
        assert array.fill(0, tag=2)[1:] == (1, True)

    def test_mark_dirty_invalid_line_rejected(self):
        array = SetAssociativeArray(num_sets=1, ways=2)
        with pytest.raises(ValueError):
            array.mark_dirty(0, 0)


class TestValidation:
    def test_bad_set_index(self):
        array = SetAssociativeArray(num_sets=2, ways=2)
        with pytest.raises(ValueError):
            array.find_way(2, tag=0)

    def test_bad_way_index(self):
        array = SetAssociativeArray(num_sets=2, ways=2)
        array.fill(1, tag=0)
        array.fill(1, tag=1)
        with pytest.raises(ValueError):
            array.mark_dirty(0, 2)  # would alias way 0 of set 1

    def test_bad_geometry(self):
        with pytest.raises(ValueError):
            SetAssociativeArray(num_sets=0, ways=2)
        with pytest.raises(ValueError):
            SetAssociativeArray(num_sets=2, ways=0)


class TestProperties:
    @given(st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=100))
    @settings(max_examples=50)
    def test_occupancy_never_exceeds_capacity(self, tags):
        array = SetAssociativeArray(num_sets=2, ways=4)
        for tag in tags:
            array.fill(tag % 2, tag)
        assert array.occupancy() <= 8

    @given(st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=100))
    @settings(max_examples=50)
    def test_filled_tag_always_found_until_evicted(self, tags):
        """After a fill the tag is resident; valid tags per set stay unique."""
        array = SetAssociativeArray(num_sets=2, ways=4)
        for tag in tags:
            set_index = tag % 2
            array.fill(set_index, tag)
            assert array.find_way(set_index, tag) is not None
            valid = array.valid_tags(set_index)
            assert len(valid) == len(set(valid))


def tracked_objects(array) -> int:
    """Number of GC-tracked objects reachable from ``array``'s attributes.

    Classes are not followed: every instance refers to its type.
    """
    seen = {}
    stack = list(vars(array).values())
    while stack:
        obj = stack.pop()
        if id(obj) not in seen and gc.is_tracked(obj) and not isinstance(obj, type):
            seen[id(obj)] = obj
            stack.extend(gc.get_referents(obj))
    return len(seen)


class TestFlatState:
    def test_fills_allocate_no_object_per_line(self):
        """Fills leave the collector nothing new to walk: no object per line."""
        array = SetAssociativeArray(num_sets=64, ways=4)
        before = tracked_objects(array)
        for tag in range(1024):
            array.fill(tag % 64, tag, dirty=tag % 3 == 0)
            array.find_way(tag % 64, tag)
        assert array.occupancy() == 256
        assert tracked_objects(array) == before
