"""Tests for replacement: LRU in the cache arrays, random and second chance in the TLBs."""

import pytest

from repro.cache.replacement import RandomReplacement, SecondChanceReplacement
from repro.cache.set_assoc import SetAssociativeArray

#: the TLB policies, by the names their parametrized tests carry
POLICIES = {"random": RandomReplacement, "second_chance": SecondChanceReplacement}


def full_set(ways: int) -> SetAssociativeArray:
    """A one-set array whose way ``w`` holds tag ``w``."""
    array = SetAssociativeArray(num_sets=1, ways=ways)
    for tag in reversed(range(ways)):  # an empty set fills from its last way down
        assert array.fill(0, tag)[0] == tag
    return array


def victim(name: str, valid: list) -> int:
    """The way ``name`` replaces when ``valid`` marks the occupied ways.

    ``"lru"`` is a one-set array holding lines in exactly the ``valid`` ways:
    its setup fills all exclude the (at most one) empty way.
    """
    if name in POLICIES:
        return POLICIES[name](len(valid)).victim(valid)
    assert valid.count(False) <= 1
    empty = valid.index(False) if False in valid else None
    array = SetAssociativeArray(num_sets=1, ways=len(valid))
    occupied = {array.fill(0, tag, excluded_way=empty)[0] for tag in range(sum(valid))}
    assert occupied == {way for way, v in enumerate(valid) if v}
    return array.fill(0, tag=len(valid))[0]


class TestCommonBehaviour:
    def test_rejects_zero_ways(self):
        for policy in POLICIES.values():
            with pytest.raises(ValueError):
                policy(0)

    @pytest.mark.parametrize("name", ["lru", *sorted(POLICIES)])
    def test_invalid_ways_preferred(self, name):
        valid = [True, False, True, True]
        assert victim(name, valid) == 1

    @pytest.mark.parametrize("name", ["lru", *sorted(POLICIES)])
    def test_victim_in_range(self, name):
        assert 0 <= victim(name, [True] * 8) < 8

    @pytest.mark.parametrize("name", ["lru"])  # only the cache arrays exclude a way
    def test_excluded_way_never_chosen(self, name):
        array = full_set(4)
        for tag in range(4, 54):
            assert array.fill(0, tag, excluded_way=2)[0] != 2
        assert array.find_way(0, tag=2) == 2  # the excluded way's line survived

    def test_cannot_exclude_only_way(self):
        array = full_set(1)
        with pytest.raises(ValueError):
            array.fill(0, tag=9, excluded_way=0)
        assert array.valid_tags(0) == [0]  # the refused fill evicted nothing

    def test_touch_rejects_bad_way(self):
        for policy in POLICIES.values():
            with pytest.raises(ValueError):
                policy(4).touch(4)

    def test_mismatched_valid_mask_rejected(self):
        for policy in POLICIES.values():
            with pytest.raises(ValueError):
                policy(4).victim([True, True])


class TestLRU:
    """True LRU is the cache array's own rule; way ``w`` holds tag ``w`` here."""

    def test_evicts_least_recently_used(self):
        array = full_set(4)
        for way in (0, 1, 2, 3):
            array.find_way(0, way)
        array.find_way(0, 0)  # order (MRU..LRU): 0,3,2,1
        assert array.fill(0, tag=9)[:2] == (1, 1)

    def test_touch_promotes(self):
        array = full_set(4)
        for way in (0, 1, 2, 3):
            array.find_way(0, way)
        array.find_way(0, 1)
        assert array.fill(0, tag=9)[:2] == (0, 0)

    def test_excluded_way_falls_back_to_next_lru(self):
        array = full_set(4)
        for way in (0, 1, 2, 3):
            array.find_way(0, way)
        # LRU way is 0 but it is excluded, so 1 is chosen.
        assert array.fill(0, tag=9, excluded_way=0)[:2] == (1, 1)


class TestRandom:
    def test_deterministic_with_seed(self):
        a = RandomReplacement(4, seed=7)
        b = RandomReplacement(4, seed=7)
        seq_a = [a.victim([True] * 4) for _ in range(20)]
        seq_b = [b.victim([True] * 4) for _ in range(20)]
        assert seq_a == seq_b

    def test_covers_all_ways_eventually(self):
        policy = RandomReplacement(4, seed=3)
        chosen = {policy.victim([True] * 4) for _ in range(200)}
        assert chosen == {0, 1, 2, 3}


class TestSecondChance:
    def test_referenced_way_gets_second_chance(self):
        policy = SecondChanceReplacement(4)
        policy.touch(0)  # way 0 referenced
        victim = policy.victim([True] * 4)
        assert victim == 1  # hand starts at 0, skips referenced way 0

    def test_sweep_clears_reference_bits(self):
        policy = SecondChanceReplacement(2)
        policy.touch(0)
        policy.touch(1)
        # All referenced: the sweep clears bits and then evicts the first.
        victim = policy.victim([True, True])
        assert victim in (0, 1)

    def test_prefers_invalid_ways(self):
        policy = SecondChanceReplacement(4)
        policy.touch(2)
        assert policy.victim([True, True, True, False]) == 3
