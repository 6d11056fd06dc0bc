"""Set-associative tag array of one cache: an L1 bank or the L2.

:class:`SetAssociativeArray` keeps a cache's metadata in flat columns with
one entry per way of every set, at ``slot = set_index * ways + way``:

* ``_tags`` holds the tag resident in each slot, :data:`INVALID` when empty;
* ``_dirty`` (a ``bytearray``) holds the dirty bits;
* ``_stamps`` holds the tick of each slot's last use.

Beside them, ``_slot_of`` maps every resident line, keyed
``tag * num_sets + set_index``, to its slot, so a lookup is one dict probe.
Tags are address bits, so never negative.  The reproduction is a
timing/energy model, so no data bytes are kept.

Replacement is true LRU, the array's own rule: a use stamps the slot with
the next tick of ``_tick`` (counting from 1), and a fill evicts the lowest
stamp among the ways it may use.  Stamps start at ``0, -1, …, -(ways-1)``
in every set, so way 0 starts most recently used and an empty set fills
from its last way down.  An empty slot keeps its starting stamp, which is
below every tick, so empty ways always win.
"""

from __future__ import annotations

from itertools import count
from math import inf
from typing import Dict, List, Optional

#: ``_tags`` entry of a slot that holds no line
INVALID = -1


class SetAssociativeArray:
    """A set-associative array of ``num_sets`` sets with ``ways`` ways each."""

    def __init__(self, num_sets: int, ways: int) -> None:
        if num_sets <= 0:
            raise ValueError("num_sets must be positive")
        if ways <= 0:
            raise ValueError("ways must be positive")
        self.num_sets = num_sets
        self.ways = ways
        slots = num_sets * ways
        self._tags: List[int] = [INVALID] * slots
        self._dirty = bytearray(slots)
        self._stamps: List[int] = list(range(0, -ways, -1)) * num_sets
        self._slot_of: Dict[int, int] = {}
        self._tick = count(1)

    def _check_set(self, set_index: int) -> None:
        if set_index < 0 or set_index >= self.num_sets:
            raise ValueError(f"set index {set_index} outside 0..{self.num_sets - 1}")

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def find_way(self, set_index: int, tag: int, update_replacement: bool = True):
        """Search ``set_index`` for ``tag``: the way holding it, or ``None``.

        A hit counts as a use of the line unless ``update_replacement`` is
        False (a probe that leaves the victim order alone).
        """
        self._check_set(set_index)
        slot = self._slot_of.get(tag * self.num_sets + set_index)
        if slot is None:
            return None
        if update_replacement:
            self._stamps[slot] = next(self._tick)
        return slot - set_index * self.ways

    def occupancy(self) -> int:
        """Total number of valid lines across the whole array."""
        return len(self._slot_of)

    def valid_tags(self, set_index: int) -> List[int]:
        """Tags of the valid lines of a set, in way order."""
        self._check_set(set_index)
        base = set_index * self.ways
        return [tag for tag in self._tags[base : base + self.ways] if tag != INVALID]

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def fill(
        self,
        set_index: int,
        tag: int,
        dirty: bool = False,
        excluded_way: Optional[int] = None,
    ):
        """Install ``tag`` in ``set_index``: ``(way, evicted_tag, evicted_dirty)``.

        A resident tag counts as a use and ORs ``dirty`` into its dirty bit.
        Otherwise the victim is the least recently used way other than
        ``excluded_way``.  ``evicted_tag`` is ``None`` when the fill
        displaced nothing, and ``evicted_dirty`` then is False.
        """
        self._check_set(set_index)
        stamps = self._stamps
        key = tag * self.num_sets + set_index
        base = set_index * self.ways
        slot = self._slot_of.get(key)
        if slot is not None:
            stamps[slot] = next(self._tick)
            if dirty:
                self._dirty[slot] = 1
            return slot - base, None, False

        window = stamps[base : base + self.ways]
        if excluded_way is not None:
            if self.ways == 1:
                raise ValueError("cannot exclude every way of a set")
            window[excluded_way] = inf
        way = window.index(min(window))
        slot = base + way
        evicted_tag: Optional[int] = self._tags[slot]
        evicted_dirty = self._dirty[slot] == 1
        if evicted_tag == INVALID:
            evicted_tag = None
        else:
            del self._slot_of[evicted_tag * self.num_sets + set_index]
        self._tags[slot] = tag
        self._dirty[slot] = dirty
        stamps[slot] = next(self._tick)
        self._slot_of[key] = slot
        return way, evicted_tag, evicted_dirty

    def mark_dirty(self, set_index: int, way: int) -> None:
        """Set the dirty bit of an existing valid line."""
        self._check_set(set_index)
        if way < 0 or way >= self.ways:
            raise ValueError(f"way {way} outside 0..{self.ways - 1}")
        slot = set_index * self.ways + way
        if self._tags[slot] == INVALID:
            raise ValueError("cannot mark an invalid line dirty")
        self._dirty[slot] = 1
