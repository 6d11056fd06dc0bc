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

A name is a counter's only address: the instance is one name -> value dict.
A structure whose access touches a fixed set of counters keeps that set as
one *pattern*, a tuple of ``(name, times)`` pairs, and counts it with
:meth:`StatCounters.add_many`; the specialized kernels flush their batched
counts through the same patterns at the end of a run.
"""

from __future__ import annotations

import sys
from typing import Dict, Iterable, Iterator, Tuple


class StatCounters:
    """A flat, named collection of integer/float counters.

    The class behaves like a ``defaultdict(float)`` with a few convenience
    helpers (ratios, merging) and deliberately keeps no reference to the
    structures that feed it, so a single instance can be shared by an
    entire simulated system.

    A counter is *live* once it has been touched by :meth:`add`,
    :meth:`add_many` or :meth:`set`, even by zero; :meth:`clear` forgets
    every counter, which is how the simulator discards warm-up statistics.
    """

    __slots__ = ("_counts",)

    def __init__(self) -> None:
        self._counts: Dict[str, float] = {}

    # ------------------------------------------------------------------
    # Basic mutation
    # ------------------------------------------------------------------
    def add(self, name: str, amount: float = 1.0) -> None:
        """Increment counter ``name`` by ``amount`` (default 1)."""
        counts = self._counts
        counts[name] = counts.get(name, 0.0) + amount

    def add_many(self, pattern: Iterable[Tuple[str, int]], amount: float = 1) -> None:
        """Add ``amount * times`` to each counter of ``pattern``, an
        iterable of ``(name, times)`` pairs."""
        counts = self._counts
        for name, times in pattern:
            counts[name] = counts.get(name, 0.0) + amount * times

    def set(self, name: str, value: float) -> None:
        """Set counter ``name`` to ``value`` explicitly."""
        self._counts[name] = value

    def get(self, name: str, default: float = 0.0) -> float:
        """Return the current value of ``name`` (``default`` if never touched)."""
        return self._counts.get(name, default)

    def __getitem__(self, name: str) -> float:
        return self._counts.get(name, 0.0)

    def __contains__(self, name: str) -> bool:
        return name in self._counts

    def __iter__(self) -> Iterator[str]:
        return iter(self._counts)

    def __len__(self) -> int:
        return len(self._counts)

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

    def merge(self, other: "StatCounters") -> None:
        """Add every counter of ``other`` into this instance."""
        for name, value in other.items():
            self.add(name, value)

    def items(self) -> Iterator[Tuple[str, float]]:
        """Iterate over ``(name, value)`` pairs of live counters."""
        return iter(self._counts.items())

    def as_dict(self) -> Dict[str, float]:
        """Snapshot of all live counters as a plain dictionary, in name
        order: the order a result read back from a store has.

        Names are interned, so the results of every run in a process share
        one string per name, as decoded results do, even where a model
        builds a name per instance or each kernel holds its own constants."""
        counts = self._counts
        names = sorted(counts)
        return dict(zip(map(sys.intern, names), map(counts.__getitem__, names)))

    def clear(self) -> None:
        """Forget every counter."""
        self._counts.clear()

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
