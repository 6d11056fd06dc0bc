"""Replacement policies of the two TLBs.

The cache arrays need no policy object: true LRU is
:class:`~repro.cache.set_assoc.SetAssociativeArray`'s own rule.  The TLBs
use the two policies Sec. V names:

* **Random** for the main TLB ("random replacement for the TLB").
* **Second chance** for the uTLB, chosen to reduce the number of full
  uWT→WT entry transfers on eviction.

A policy works on the slot indices of one fully-associative TLB, which
owns it; it does not know about addresses.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Sequence


class ReplacementPolicy(ABC):
    """Victim selection and usage tracking for ``ways`` slots."""

    def __init__(self, ways: int) -> None:
        if ways <= 0:
            raise ValueError("a policy needs at least one way")
        self.ways = ways

    @abstractmethod
    def touch(self, way: int) -> None:
        """Record a hit/use of ``way``."""

    @abstractmethod
    def victim(self, valid_mask: Sequence[bool]) -> int:
        """Choose a way to evict/fill.

        ``valid_mask[w]`` is ``True`` when way ``w`` currently holds a valid
        entry.  Invalid ways are always preferred as victims.
        """

    @abstractmethod
    def victim_full(self) -> int:
        """Victim when every way is valid.

        Semantically identical to ``victim([True] * ways)``; containers that
        track their valid count call this to skip building the mask on the
        steady-state fill path.
        """

    def _check_way(self, way: int) -> None:
        if way < 0 or way >= self.ways:
            raise ValueError(f"way {way} outside 0..{self.ways - 1}")

    def _check_mask(self, valid_mask: Sequence[bool]) -> None:
        if len(valid_mask) != self.ways:
            raise ValueError("valid_mask length must equal the number of ways")


class RandomReplacement(ReplacementPolicy):
    """Uniformly random victim selection with a private, seedable RNG."""

    def __init__(self, ways: int, seed: int = 0) -> None:
        super().__init__(ways)
        self._rng = random.Random(seed)
        self._all_ways = list(range(ways))

    def touch(self, way: int) -> None:
        self._check_way(way)

    def victim_full(self) -> int:
        return self._rng.choice(self._all_ways)

    def victim(self, valid_mask: Sequence[bool]) -> int:
        self._check_mask(valid_mask)
        invalid = [way for way, valid in enumerate(valid_mask) if not valid]
        return self._rng.choice(invalid or self._all_ways)


class SecondChanceReplacement(ReplacementPolicy):
    """Second-chance (clock) replacement.

    Each way carries a reference bit which is set on use.  The clock hand
    sweeps the ways; a way with its bit set gets a second chance (bit cleared,
    hand advances), the first way found with a clear bit is evicted.  The
    paper uses this for the uTLB because it tends to keep recently re-used
    pages resident, which limits the number of uWT/WT entry transfers.
    """

    def __init__(self, ways: int) -> None:
        super().__init__(ways)
        self._referenced = [False] * ways
        self._hand = 0

    def touch(self, way: int) -> None:
        if way < 0 or way >= self.ways:
            self._check_way(way)
        self._referenced[way] = True

    def victim_full(self) -> int:
        # One revolution clears every set bit, so the second one evicts.
        referenced = self._referenced
        for _ in range(2 * self.ways):
            way = self._hand
            self._hand = (self._hand + 1) % self.ways
            if referenced[way]:
                referenced[way] = False
                continue
            return way
        return self._hand  # pragma: no cover - unreachable, bits were cleared

    def victim(self, valid_mask: Sequence[bool]) -> int:
        self._check_mask(valid_mask)
        # The lowest invalid way needs no sweep.
        for way, valid in enumerate(valid_mask):
            if not valid:
                return way
        return self.victim_full()
