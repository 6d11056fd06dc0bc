"""Shared statistics counters.

Every hardware structure in the reproduction (TLBs, way tables, cache banks,
store/merge buffers, the arbitration logic, ...) reports its activity by
incrementing named counters on a shared :class:`StatCounters` instance.  The
energy model (:mod:`repro.energy`) later converts a subset of these counters
(the *access events*) into dynamic energy, and the simulator records derived
metrics such as coverage and miss rates from them.

Counter names follow a simple ``<structure>.<event>`` convention, e.g.
``l1.tag_read``, ``utlb.hit`` or ``wt.update``.  Keeping them in one flat
namespace makes it trivial to diff two configurations and to serialise results.

Internally the counters are *integer indexed*: every name is interned once
into a slot of a flat value array, and hot structures resolve their counter
names to slot handles at construction time (:meth:`StatCounters.handle`) so
the per-access increment (:meth:`StatCounters.bump`) is a bare list index —
no string hashing on the simulation hot path.  The name-keyed API
(:meth:`add`, :meth:`get`, ...) is unchanged and backed by the same slots;
:meth:`as_dict` flushes the live slots back into a plain dictionary at the
end of a run.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Mapping, Tuple


class StatCounters:
    """A flat, named collection of integer/float counters.

    The class behaves like a ``defaultdict(float)`` with a few convenience
    helpers (ratios, merging, prefix filtering) and deliberately keeps no
    reference to the structures that feed it, so a single instance can be
    shared by an entire simulated system.

    A counter is *live* once it has been touched by :meth:`add`, :meth:`set`
    or :meth:`bump`; :meth:`clear` resets every slot to zero and not-live
    without invalidating previously issued handles, which is what lets the
    simulator discard warm-up statistics while the hardware structures keep
    their resolved handles.
    """

    __slots__ = ("_index", "_names", "_values", "_live")

    def __init__(self) -> None:
        self._index: Dict[str, int] = {}
        self._names: List[str] = []
        self._values: List[float] = []
        self._live: List[bool] = []

    # ------------------------------------------------------------------
    # Slot interning (the integer-indexed hot path)
    # ------------------------------------------------------------------
    def handle(self, name: str) -> int:
        """Intern ``name`` and return its slot index for :meth:`bump`.

        Handles are stable for the lifetime of the instance (they survive
        :meth:`clear`); hot structures resolve them once at construction.
        """
        slot = self._index.get(name)
        if slot is None:
            slot = len(self._names)
            self._index[name] = slot
            self._names.append(name)
            self._values.append(0.0)
            self._live.append(False)
        return slot

    def bump(self, slot: int, amount: float = 1.0) -> None:
        """Increment the counter at ``slot`` (from :meth:`handle`) by ``amount``."""
        self._values[slot] += amount
        self._live[slot] = True

    def bump_many(self, pairs) -> None:
        """Apply a precomputed ``((slot, amount), ...)`` batch in one call.

        Hot structures with a fixed per-access counter pattern (e.g. a
        conventional cache read touching ctrl/tag/data/access counters)
        build the tuple once at construction and flush it per event.
        """
        values = self._values
        live = self._live
        for slot, amount in pairs:
            values[slot] += amount
            live[slot] = True

    # ------------------------------------------------------------------
    # Basic mutation
    # ------------------------------------------------------------------
    def add(self, name: str, amount: float = 1.0) -> None:
        """Increment counter ``name`` by ``amount`` (default 1)."""
        slot = self.handle(name)
        self._values[slot] += amount
        self._live[slot] = True

    def set(self, name: str, value: float) -> None:
        """Set counter ``name`` to ``value`` explicitly."""
        slot = self.handle(name)
        self._values[slot] = value
        self._live[slot] = True

    def get(self, name: str, default: float = 0.0) -> float:
        """Return the current value of ``name`` (``default`` if never touched)."""
        slot = self._index.get(name)
        if slot is None or not self._live[slot]:
            return default
        return self._values[slot]

    def __getitem__(self, name: str) -> float:
        return self.get(name, 0.0)

    def __contains__(self, name: str) -> bool:
        slot = self._index.get(name)
        return slot is not None and self._live[slot]

    def __iter__(self) -> Iterator[str]:
        return (name for slot, name in enumerate(self._names) if self._live[slot])

    def __len__(self) -> int:
        return sum(1 for live in self._live if live)

    # ------------------------------------------------------------------
    # Aggregation helpers
    # ------------------------------------------------------------------
    def ratio(self, numerator: str, denominator: str) -> float:
        """Return ``numerator / denominator`` or 0.0 if the denominator is 0."""
        denom = self.get(denominator)
        if denom == 0:
            return 0.0
        return self.get(numerator) / denom

    def total(self, *names: str) -> float:
        """Sum of the given counters."""
        return sum(self.get(name) for name in names)

    def with_prefix(self, prefix: str) -> Dict[str, float]:
        """Return all counters whose name starts with ``prefix``."""
        return {
            name: self._values[slot]
            for slot, name in enumerate(self._names)
            if self._live[slot] and name.startswith(prefix)
        }

    def merge(self, other: "StatCounters") -> None:
        """Add every counter of ``other`` into this instance."""
        for name, value in other.items():
            self.add(name, value)

    def items(self) -> Iterator[Tuple[str, float]]:
        """Iterate over ``(name, value)`` pairs of live counters."""
        return (
            (name, self._values[slot])
            for slot, name in enumerate(self._names)
            if self._live[slot]
        )

    def as_dict(self) -> Dict[str, float]:
        """Snapshot of all live counters as a plain dictionary (the flush),
        in name order: the order a result read back from a store has."""
        return {
            name: self._values[slot]
            for name, slot in sorted(self._index.items())
            if self._live[slot]
        }

    def clear(self) -> None:
        """Reset every counter to zero (issued handles stay valid).

        The reset happens *in place*: hot structures may cache references to
        the value/liveness lists (see e.g. the interfaces' inlined bumps),
        and those references must survive a warm-up discard.
        """
        values = self._values
        live = self._live
        for slot in range(len(values)):
            values[slot] = 0.0
            live[slot] = False

    def update_from(self, mapping: Mapping[str, float]) -> None:
        """Add the values of ``mapping`` into the counters."""
        for name, value in mapping.items():
            self.add(name, value)

    # ------------------------------------------------------------------
    # Presentation
    # ------------------------------------------------------------------
    def summary(self, prefix: str = "") -> str:
        """Human-readable multi-line summary, optionally filtered by prefix."""
        lines = []
        for name in sorted(self):
            if prefix and not name.startswith(prefix):
                continue
            value = self.get(name)
            if float(value).is_integer():
                lines.append(f"{name:<40s} {int(value):>14d}")
            else:
                lines.append(f"{name:<40s} {value:>14.4f}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"StatCounters({len(self)} counters)"
