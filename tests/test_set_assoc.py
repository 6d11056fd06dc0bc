"""Tests for the generic set-associative array."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.set_assoc import SetAssociativeArray


class TestLookupAndFill:
    def test_miss_then_hit(self):
        array = SetAssociativeArray(num_sets=4, ways=2)
        assert array.find_way(0, tag=7, update_replacement=False) is None
        way, eviction = array.fill(0, tag=7)
        assert eviction is None
        assert array.find_way(0, tag=7, update_replacement=False) == way

    def test_fill_existing_refreshes_dirtiness(self):
        array = SetAssociativeArray(num_sets=1, ways=2)
        way1, _ = array.fill(0, tag=1)
        way2, eviction = array.fill(0, tag=1, dirty=True)
        assert way1 == way2 and eviction is None
        assert array.line(0, way1).dirty
        array.fill(0, tag=1)  # a clean refill keeps the line dirty
        assert array.line(0, way1).dirty

    def test_eviction_when_set_full(self):
        array = SetAssociativeArray(num_sets=1, ways=2)
        array.fill(0, tag=1)
        array.fill(0, tag=2)
        _, eviction = array.fill(0, tag=3)
        assert eviction is not None
        assert eviction.tag in (1, 2)
        assert array.occupancy() == 2

    def test_lru_eviction_order(self):
        array = SetAssociativeArray(num_sets=1, ways=2, replacement="lru")
        array.fill(0, tag=1)
        array.fill(0, tag=2)
        array.find_way(0, tag=1)  # make tag 1 most recently used
        _, eviction = array.fill(0, tag=3)
        assert eviction.tag == 2

    def test_excluded_way_respected(self):
        array = SetAssociativeArray(num_sets=1, ways=4)
        for tag in range(4):
            array.fill(0, tag=tag)
        way, _ = array.fill(0, tag=99, excluded_way=2)
        assert way != 2

    def test_preferred_way(self):
        array = SetAssociativeArray(num_sets=1, ways=4)
        way, _ = array.fill(0, tag=5, preferred_way=3)
        assert way == 3

    def test_preferred_conflicts_with_excluded(self):
        array = SetAssociativeArray(num_sets=1, ways=4)
        with pytest.raises(ValueError):
            array.fill(0, tag=5, preferred_way=2, excluded_way=2)

    def test_probe_does_not_touch_replacement(self):
        array = SetAssociativeArray(num_sets=1, ways=2, replacement="lru")
        array.fill(0, tag=1)
        array.fill(0, tag=2)
        array.find_way(0, tag=1, update_replacement=False)  # non-updating probe
        _, eviction = array.fill(0, tag=3)
        assert eviction.tag == 1  # tag 1 stayed LRU despite the probe


class TestDirtyAndInvalidate:
    def test_mark_dirty(self):
        array = SetAssociativeArray(num_sets=1, ways=2)
        way, _ = array.fill(0, tag=1)
        array.mark_dirty(0, way)
        assert array.line(0, way).dirty

    def test_mark_dirty_invalid_line_rejected(self):
        array = SetAssociativeArray(num_sets=1, ways=2)
        with pytest.raises(ValueError):
            array.mark_dirty(0, 0)

    def test_invalidate(self):
        array = SetAssociativeArray(num_sets=2, ways=2)
        array.fill(1, tag=9)
        assert array.invalidate(1, tag=9)
        assert array.find_way(1, tag=9, update_replacement=False) is None
        assert not array.invalidate(1, tag=9)

    def test_invalidate_all(self):
        array = SetAssociativeArray(num_sets=2, ways=2)
        array.fill(0, tag=1)
        array.fill(1, tag=2)
        array.invalidate_all()
        assert array.occupancy() == 0


class TestCallbacks:
    def test_eviction_callback_fired(self):
        events = []
        array = SetAssociativeArray(num_sets=1, ways=1, on_evict=events.append)
        array.fill(0, tag=1, dirty=True)
        array.fill(0, tag=2)
        assert len(events) == 1
        assert events[0].tag == 1 and events[0].dirty

    def test_invalidate_fires_callback(self):
        events = []
        array = SetAssociativeArray(num_sets=1, ways=2, on_evict=events.append)
        array.fill(0, tag=1)
        array.invalidate(0, tag=1)
        assert len(events) == 1


class TestValidation:
    def test_bad_set_index(self):
        array = SetAssociativeArray(num_sets=2, ways=2)
        with pytest.raises(ValueError):
            array.find_way(2, tag=0)

    def test_bad_way_index(self):
        array = SetAssociativeArray(num_sets=2, ways=2)
        with pytest.raises(ValueError):
            array.line(0, 2)

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
