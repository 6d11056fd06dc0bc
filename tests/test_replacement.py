"""Tests for replacement: LRU in the cache arrays, random and second chance in the TLBs."""

import random

import pytest

from repro.cache.set_assoc import SetAssociativeArray
from repro.tlb.tlb import TLB

#: the TLB policies, by the names their parametrized tests carry, as the
#: ``seed`` a TLB takes: a seeded TLB replaces at random, an unseeded one by
#: second chance
POLICIES = {"random": 0, "second_chance": None}


def full_set(ways: int) -> SetAssociativeArray:
    """A one-set array whose way ``w`` holds tag ``w``."""
    array = SetAssociativeArray(num_sets=1, ways=ways)
    for tag in reversed(range(ways)):  # an empty set fills from its last way down
        assert array.fill(0, tag)[0] == tag
    return array


def tlb_holding(name: str, valid: list) -> TLB:
    """A TLB whose slot ``s`` holds page ``s`` (frame ``100 + s``) wherever
    ``valid[s]``, with every reference bit clear.

    The pages are written into the columns: inserts would fill the empty
    slots in the policy's own order and set reference bits.
    """
    tlb = TLB(len(valid), seed=POLICIES[name])
    for slot, occupied in enumerate(valid):
        if occupied:
            tlb._vpages[slot], tlb._ppages[slot] = slot, 100 + slot
            tlb._by_vpage[slot], tlb._by_ppage[100 + slot] = slot, slot
    return tlb


def victim(name: str, valid: list) -> int:
    """The way ``name`` replaces when ``valid`` marks the occupied ways.

    ``"lru"`` is a one-set array holding lines in exactly the ``valid`` ways:
    its setup fills all exclude the (at most one) empty way.  A TLB policy's
    victim is the slot a new page takes.
    """
    if name in POLICIES:
        return tlb_holding(name, valid).insert(len(valid), 100 + len(valid))
    assert valid.count(False) <= 1
    empty = valid.index(False) if False in valid else None
    array = SetAssociativeArray(num_sets=1, ways=len(valid))
    occupied = {array.fill(0, tag, excluded_way=empty)[0] for tag in range(sum(valid))}
    assert occupied == {way for way, v in enumerate(valid) if v}
    return array.fill(0, tag=len(valid))[0]


class TestCommonBehaviour:
    def test_rejects_zero_ways(self):
        for seed in POLICIES.values():
            with pytest.raises(ValueError):
                TLB(0, seed=seed)

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


def insert_slots(tlb: TLB, pages: range) -> list:
    """The slot each page of ``pages`` takes, inserted in order."""
    return [tlb.insert(page, 1000 + page) for page in pages]


class TestRandom:
    def test_deterministic_with_seed(self):
        a = TLB(4, seed=7)
        b = TLB(4, seed=7)
        seq_a = insert_slots(a, range(24))
        assert seq_a == insert_slots(b, range(24))
        # The draws: a choice among the empty slots, in slot order, while
        # one is empty, then a choice among all slots.
        rng = random.Random(7)
        empty = [0, 1, 2, 3]
        expected = []
        for _ in range(4):
            expected.append(rng.choice(empty))
            empty.remove(expected[-1])
        expected += [rng.choice(range(4)) for _ in range(20)]
        assert seq_a == expected

    def test_covers_all_ways_eventually(self):
        tlb = TLB(4, seed=3)
        chosen = set(insert_slots(tlb, range(204))[4:])
        assert chosen == {0, 1, 2, 3}


class TestSecondChance:
    def test_referenced_way_gets_second_chance(self):
        tlb = tlb_holding("second_chance", [True] * 4)
        tlb.lookup(0)  # way 0 referenced
        victim = tlb.insert(9, 109)
        assert victim == 1  # hand starts at 0, skips referenced way 0

    def test_sweep_clears_reference_bits(self):
        tlb = TLB(2)
        # Inserting sets each slot's bit: the sweep clears both bits and
        # then evicts the first.
        assert insert_slots(tlb, range(3)) == [0, 1, 0]
        assert list(tlb._referenced) == [1, 0]  # only the new page's bit
        assert tlb._hand == 1

    def test_prefers_invalid_ways(self):
        tlb = tlb_holding("second_chance", [True, True, True, False])
        tlb.lookup(2)
        assert tlb.insert(9, 109) == 3
