"""Replacement policies for set-associative structures.

The reproduction needs three policies:

* **LRU** for every cache array: the L1 banks and the L2.
* **Random** for the main TLB (Sec. V: "random replacement for the TLB").
* **Second chance** for the uTLB (Sec. V chooses it specifically to reduce
  the number of full uWT→WT entry transfers on eviction).

All policies operate on way indices of a single set and are owned by that
set's container; they do not know about addresses.  The L1 additionally
supports *excluded ways*: Page-Based Way Determination encodes way+validity
in 2 bits by declaring one specific way per line group "unknown" (Sec. V), so
the cache may be asked to avoid allocating a line into its excluded way.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import List, Optional, Sequence


class ReplacementPolicy(ABC):
    """Victim selection and usage tracking for one set of ``ways`` ways."""

    def __init__(self, ways: int) -> None:
        if ways <= 0:
            raise ValueError("a set needs at least one way")
        self.ways = ways

    @abstractmethod
    def touch(self, way: int) -> None:
        """Record a hit/use of ``way``."""

    @abstractmethod
    def victim(self, valid_mask: Sequence[bool], excluded_way: Optional[int] = None) -> int:
        """Choose a way to evict/fill.

        Parameters
        ----------
        valid_mask:
            ``valid_mask[w]`` is ``True`` when way ``w`` currently holds a
            valid line.  Invalid ways are always preferred as victims.
        excluded_way:
            Optional way that must not be chosen (used by the 2-bit way-table
            encoding restriction).  If every allowed way is invalid-free and
            only the excluded way would remain, the exclusion is honoured by
            picking an allowed valid way instead.
        """

    def _check_way(self, way: int) -> None:
        if way < 0 or way >= self.ways:
            raise ValueError(f"way {way} outside 0..{self.ways - 1}")

    @abstractmethod
    def victim_full(self) -> int:
        """Victim when every way is valid and nothing is excluded.

        Semantically identical to ``victim([True] * ways)``; containers that
        track their valid count call this to skip building the mask and the
        candidate filtering on the steady-state fill path.
        """

    def _candidates(
        self, valid_mask: Sequence[bool], excluded_way: Optional[int]
    ) -> List[int]:
        """Ways eligible for victimisation, preferring invalid ways."""
        if len(valid_mask) != self.ways:
            raise ValueError("valid_mask length must equal the number of ways")
        allowed = [w for w in range(self.ways) if w != excluded_way]
        if not allowed:
            raise ValueError("cannot exclude every way of a set")
        invalid = [w for w in allowed if not valid_mask[w]]
        return invalid if invalid else allowed


class LRUReplacement(ReplacementPolicy):
    """True least-recently-used replacement using an explicit recency stack."""

    def __init__(self, ways: int) -> None:
        super().__init__(ways)
        # Most-recently-used first.
        self._stack: List[int] = list(range(ways))

    def touch(self, way: int) -> None:
        if way < 0 or way >= self.ways:
            self._check_way(way)
        stack = self._stack
        if stack[0] != way:  # temporal locality: most touches re-hit the MRU way
            stack.remove(way)
            stack.insert(0, way)

    def victim_full(self) -> int:
        return self._stack[-1]

    def victim(self, valid_mask: Sequence[bool], excluded_way: Optional[int] = None) -> int:
        if len(valid_mask) != self.ways:
            raise ValueError("valid_mask length must equal the number of ways")
        # Fast path for the overwhelmingly common steady-state case: every
        # way valid and nothing excluded — the victim is simply the LRU way.
        if excluded_way is None:
            if all(valid_mask):
                return self._stack[-1]
            # Invalid ways are preferred; picking the least-recently-used
            # invalid way is exactly "first candidate on the reversed stack"
            # with candidates = the invalid ways — no list/set allocations.
            for way in reversed(self._stack):
                if not valid_mask[way]:
                    return way
            raise RuntimeError("LRU stack lost track of ways")  # pragma: no cover
        # Excluded way present: same walk, preferring invalid allowed ways,
        # falling back to any allowed way (identical to the _candidates()
        # selection, allocation-free).
        if self.ways == 1 and excluded_way == 0:
            raise ValueError("cannot exclude every way of a set")
        for way in reversed(self._stack):
            if way != excluded_way and not valid_mask[way]:
                return way
        for way in reversed(self._stack):
            if way != excluded_way:
                return way
        raise RuntimeError("LRU stack lost track of ways")  # pragma: no cover


class RandomReplacement(ReplacementPolicy):
    """Uniformly random victim selection with a private, seedable RNG."""

    def __init__(self, ways: int, seed: int = 0) -> None:
        super().__init__(ways)
        self._rng = random.Random(seed)

    def touch(self, way: int) -> None:
        self._check_way(way)

    def victim_full(self) -> int:
        # choice() over the full way list consumes the RNG exactly as
        # choice(_candidates(all-valid, None)) would — same list contents.
        all_ways = getattr(self, "_all_ways", None)
        if all_ways is None:
            all_ways = self._all_ways = list(range(self.ways))
        return self._rng.choice(all_ways)

    def victim(self, valid_mask: Sequence[bool], excluded_way: Optional[int] = None) -> int:
        return self._rng.choice(self._candidates(valid_mask, excluded_way))


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
        # Every way is a candidate: the clock sweep needs no membership test
        # and no invalid-way scan (identical selection to victim(all-valid)).
        referenced = self._referenced
        for _ in range(2 * self.ways):
            way = self._hand
            self._hand = (self._hand + 1) % self.ways
            if referenced[way]:
                referenced[way] = False
                continue
            return way
        return self._hand  # pragma: no cover - unreachable, bits were cleared

    def victim(self, valid_mask: Sequence[bool], excluded_way: Optional[int] = None) -> int:
        candidates = set(self._candidates(valid_mask, excluded_way))
        # Invalid candidates need no sweep.
        for way in sorted(candidates):
            if not valid_mask[way]:
                return way
        # Sweep at most two full revolutions: one to clear bits, one to pick.
        for _ in range(2 * self.ways):
            way = self._hand
            self._hand = (self._hand + 1) % self.ways
            if way not in candidates:
                continue
            if self._referenced[way]:
                self._referenced[way] = False
                continue
            return way
        # All candidates were repeatedly referenced; fall back to clock order.
        for way in range(self.ways):  # pragma: no cover - defensive
            candidate = (self._hand + way) % self.ways
            if candidate in candidates:
                return candidate
        raise RuntimeError("no victim found")  # pragma: no cover


_POLICIES = {
    "lru": LRUReplacement,
    "random": RandomReplacement,
    "second_chance": SecondChanceReplacement,
}


def make_replacement_policy(name: str, ways: int, seed: int = 0) -> ReplacementPolicy:
    """Factory used by configuration code.

    ``name`` is one of ``lru``, ``random`` or ``second_chance``.
    """
    try:
        cls = _POLICIES[name]
    except KeyError as exc:
        raise ValueError(
            f"unknown replacement policy {name!r}; choose from {sorted(_POLICIES)}"
        ) from exc
    if cls is RandomReplacement:
        return cls(ways, seed=seed)
    return cls(ways)
