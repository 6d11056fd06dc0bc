"""Tests for the replacement policies (LRU, random, second chance)."""

import pytest

from repro.cache.replacement import (
    LRUReplacement,
    RandomReplacement,
    SecondChanceReplacement,
    make_replacement_policy,
)


class TestFactory:
    @pytest.mark.parametrize("name", ["lru", "random", "second_chance"])
    def test_factory_builds_each_policy(self, name):
        policy = make_replacement_policy(name, 4)
        assert policy.ways == 4

    def test_factory_rejects_unknown_policy(self):
        with pytest.raises(ValueError):
            make_replacement_policy("fifo", 4)

    def test_rejects_zero_ways(self):
        with pytest.raises(ValueError):
            LRUReplacement(0)


class TestCommonBehaviour:
    @pytest.mark.parametrize("name", ["lru", "random", "second_chance"])
    def test_invalid_ways_preferred(self, name):
        policy = make_replacement_policy(name, 4)
        valid = [True, False, True, True]
        assert policy.victim(valid) == 1

    @pytest.mark.parametrize("name", ["lru", "random", "second_chance"])
    def test_excluded_way_never_chosen(self, name):
        policy = make_replacement_policy(name, 4)
        for _ in range(50):
            victim = policy.victim([True] * 4, excluded_way=2)
            assert victim != 2
            policy.touch(victim)

    @pytest.mark.parametrize("name", ["lru", "random", "second_chance"])
    def test_victim_in_range(self, name):
        policy = make_replacement_policy(name, 8)
        assert 0 <= policy.victim([True] * 8) < 8

    def test_touch_rejects_bad_way(self):
        policy = LRUReplacement(4)
        with pytest.raises(ValueError):
            policy.touch(4)

    def test_mismatched_valid_mask_rejected(self):
        policy = LRUReplacement(4)
        with pytest.raises(ValueError):
            policy.victim([True, True])

    def test_cannot_exclude_only_way(self):
        policy = LRUReplacement(1)
        with pytest.raises(ValueError):
            policy.victim([True], excluded_way=0)


class TestLRU:
    def test_evicts_least_recently_used(self):
        policy = LRUReplacement(4)
        for way in (0, 1, 2, 3):
            policy.touch(way)
        policy.touch(0)  # order (MRU..LRU): 0,3,2,1
        assert policy.victim([True] * 4) == 1

    def test_touch_promotes(self):
        policy = LRUReplacement(4)
        for way in (0, 1, 2, 3):
            policy.touch(way)
        policy.touch(1)
        assert policy.victim([True] * 4) == 0

    def test_excluded_way_falls_back_to_next_lru(self):
        policy = LRUReplacement(4)
        for way in (0, 1, 2, 3):
            policy.touch(way)
        # LRU order is 0 but it is excluded, so 1 is chosen.
        assert policy.victim([True] * 4, excluded_way=0) == 1


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
