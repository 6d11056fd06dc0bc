"""Generic set-associative storage array.

:class:`SetAssociativeArray` implements the bookkeeping shared by the L1
banks, the L2 cache and (as a degenerate fully-associative case) the TLBs:
tag match, fill with victim selection, eviction and explicit invalidation.
It stores *metadata only* — the reproduction is a timing/energy model, so no
actual data bytes are kept, only tags, validity and dirtiness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.cache.replacement import ReplacementPolicy, make_replacement_policy


class CacheLineState:
    """State of a single way within a set (slotted: one per resident line)."""

    __slots__ = ("valid", "dirty", "tag")

    def __init__(self, valid: bool = False, dirty: bool = False, tag: int = 0) -> None:
        self.valid = valid
        self.dirty = dirty
        self.tag = tag

    def reset(self) -> None:
        """Invalidate the line."""
        self.valid = False
        self.dirty = False
        self.tag = 0


@dataclass
class EvictionRecord:
    """Description of a line displaced by a fill."""

    set_index: int
    way: int
    tag: int
    dirty: bool


class SetAssociativeArray:
    """A set-associative array of ``num_sets`` sets with ``ways`` ways each.

    Parameters
    ----------
    num_sets:
        Number of sets (1 gives a fully-associative structure).
    ways:
        Associativity.
    replacement:
        Replacement policy name understood by
        :func:`repro.cache.replacement.make_replacement_policy`.
    seed:
        Seed forwarded to stochastic replacement policies.
    on_evict:
        Optional callback invoked with an :class:`EvictionRecord` whenever a
        valid line is displaced or invalidated.  The L1 uses it to keep the
        way tables coherent (Sec. V: validity bits are reset on evictions).
    """

    def __init__(
        self,
        num_sets: int,
        ways: int,
        replacement: str = "lru",
        seed: int = 0,
        on_evict: Optional[Callable[[EvictionRecord], None]] = None,
    ) -> None:
        if num_sets <= 0:
            raise ValueError("num_sets must be positive")
        if ways <= 0:
            raise ValueError("ways must be positive")
        self.num_sets = num_sets
        self.ways = ways
        self.on_evict = on_evict
        self._replacement = replacement
        self._seed = seed
        # Sets are materialised lazily on first touch: a 1 MByte L2 would
        # otherwise allocate 16 K line-state objects and 1 K policies per
        # simulator even though short runs touch a fraction of them.  Each
        # set's replacement policy is still seeded ``seed + set_index``, so
        # lazy construction is bit-identical to the eager one.
        self._sets: Dict[int, List[CacheLineState]] = {}
        self._policies: Dict[int, ReplacementPolicy] = {}
        # Per-set tag -> way index, kept coherent by every mutator; lookups
        # are a dict probe instead of an O(ways) scan over line objects.
        # (All line-state mutation flows through fill/mark_dirty/invalidate*,
        # so the index can never go stale.)  len(tags) doubles as the set's
        # valid count, so the steady-state fill path skips mask building.
        self._tags: Dict[int, Dict[int, int]] = {}
        # Validate the policy name eagerly (and keep the error site here):
        make_replacement_policy(replacement, ways, seed=seed)

    # ------------------------------------------------------------------
    # Lazy set materialisation
    # ------------------------------------------------------------------
    def _lines(self, set_index: int) -> List[CacheLineState]:
        """The ways of ``set_index``, materialising the set on first touch."""
        lines = self._sets.get(set_index)
        if lines is None:
            lines = self._sets[set_index] = [CacheLineState() for _ in range(self.ways)]
            self._tags[set_index] = {}
        return lines

    def _policy(self, set_index: int) -> ReplacementPolicy:
        """The replacement policy of ``set_index`` (lazily constructed)."""
        policy = self._policies.get(set_index)
        if policy is None:
            policy = self._policies[set_index] = make_replacement_policy(
                self._replacement, self.ways, seed=self._seed + set_index
            )
        return policy

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _check_set(self, set_index: int) -> None:
        if set_index < 0 or set_index >= self.num_sets:
            raise ValueError(f"set index {set_index} outside 0..{self.num_sets - 1}")

    def find_way(self, set_index: int, tag: int, update_replacement: bool = True):
        """Search ``set_index`` for ``tag``: the way holding it, or ``None``.

        A hit records the use with the set's replacement policy unless
        ``update_replacement`` is False (a probe that leaves the victim
        order alone).  :meth:`line` gives the state of the way found.
        """
        self._check_set(set_index)
        tags = self._tags.get(set_index)
        way = tags.get(tag) if tags is not None else None
        if way is None:
            return None
        if update_replacement:
            self._policy(set_index).touch(way)
        return way

    def line(self, set_index: int, way: int) -> CacheLineState:
        """Direct access to the state of one way."""
        self._check_set(set_index)
        if way < 0 or way >= self.ways:
            raise ValueError(f"way {way} outside 0..{self.ways - 1}")
        return self._lines(set_index)[way]

    def occupancy(self) -> int:
        """Total number of valid lines across the whole array."""
        return sum(
            1 for ways in self._sets.values() for line in ways if line.valid
        )

    def valid_tags(self, set_index: int) -> List[int]:
        """Tags of all valid lines in a set (helper for invariants in tests)."""
        self._check_set(set_index)
        lines = self._sets.get(set_index)
        if lines is None:
            return []
        return [line.tag for line in lines if line.valid]

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def fill(
        self,
        set_index: int,
        tag: int,
        dirty: bool = False,
        excluded_way: Optional[int] = None,
        preferred_way: Optional[int] = None,
    ) -> tuple[int, Optional[EvictionRecord]]:
        """Insert ``tag`` into ``set_index`` and return ``(way, eviction)``.

        If the tag is already present its dirtiness is refreshed in place.
        Otherwise a victim is chosen (honouring ``excluded_way`` and
        ``preferred_way``) and, if it held a valid line, an
        :class:`EvictionRecord` is produced and the ``on_evict`` callback
        fired.
        """
        self._check_set(set_index)
        lines = self._lines(set_index)
        tags = self._tags[set_index]
        existing_way = tags.get(tag)
        if existing_way is not None:
            self._policy(set_index).touch(existing_way)
            line = lines[existing_way]
            line.dirty = line.dirty or dirty
            return existing_way, None

        policy = self._policy(set_index)
        if preferred_way is not None:
            if preferred_way == excluded_way:
                raise ValueError("preferred way conflicts with excluded way")
            way = preferred_way
        elif excluded_way is None and len(tags) == self.ways:
            # Steady state (every way valid, nothing excluded): skip the mask.
            way = policy.victim_full()
        else:
            way = policy.victim([line.valid for line in lines], excluded_way=excluded_way)
        line = lines[way]

        eviction: Optional[EvictionRecord] = None
        if line.valid:
            eviction = EvictionRecord(
                set_index=set_index,
                way=way,
                tag=line.tag,
                dirty=line.dirty,
            )
            del tags[line.tag]
            if self.on_evict is not None:
                self.on_evict(eviction)

        line.valid = True
        line.tag = tag
        line.dirty = dirty
        tags[tag] = way
        policy.touch(way)
        return way, eviction

    def mark_dirty(self, set_index: int, way: int) -> None:
        """Set the dirty bit of an existing valid line."""
        line = self.line(set_index, way)
        if not line.valid:
            raise ValueError("cannot mark an invalid line dirty")
        line.dirty = True

    def invalidate(self, set_index: int, tag: int) -> bool:
        """Invalidate ``tag`` if present; returns ``True`` when a line was dropped."""
        way = self.find_way(set_index, tag, update_replacement=False)
        if way is None:
            return False
        line = self._sets[set_index][way]
        record = EvictionRecord(
            set_index=set_index,
            way=way,
            tag=line.tag,
            dirty=line.dirty,
        )
        del self._tags[set_index][line.tag]
        line.reset()
        if self.on_evict is not None:
            self.on_evict(record)
        return True

    def invalidate_all(self) -> None:
        """Invalidate every line without firing eviction callbacks."""
        for ways in self._sets.values():
            for line in ways:
                line.reset()
        for tags in self._tags.values():
            tags.clear()
