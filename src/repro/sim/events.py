"""Event-wheel scheduling for the event-driven simulation core.

The cycle-driven pipeline loop of PR 2 polled every component every cycle
and special-cased fully idle stretches with an *idle fast-forward*.  This
module generalizes that special case: components register the cycle of
their next activity in an :class:`EventWheel`, the main loop asks the wheel
for the next cycle in which *anything* happens and jumps its clock straight
there.  "Quiescent" (the PR-2 protocol) becomes the degenerate case of "no
event scheduled".

Determinism
-----------
Results must stay bit-identical to polling every component every cycle
(pinned by ``tests/golden/pipeline_identity.json``), so the wheel is
deterministic end to end:

* events scheduled for the same cycle are returned in a fixed order —
  first by the *component* that scheduled them (components are assigned
  monotonically increasing ids at registration time, so registration order
  is the tie-break order), then by insertion order within the component;
* no hashing of event payloads is involved anywhere; buckets are plain
  lists keyed by integer cycle.

The wheel is a calendar queue: a dictionary of per-cycle buckets plus a
min-heap of *bucket* cycles.  Scheduling into an existing bucket is a plain
list append (no heap operation), which matters because completions cluster
heavily — a page group of four loads completes in the same cycle, and one
DRAM miss wakes several dependents at once.  The heap only ever holds one
entry per distinct scheduled cycle.

Single-component mode
---------------------
``EventWheel(single_component=True)`` stores bare payloads (no component
tag, no per-cycle sort): with one producer, insertion order within a bucket
*is* the deterministic order.  The pipeline's completion wheel — the
hottest consumer — runs in this mode.
"""

from __future__ import annotations

import heapq
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["EventWheel"]


class EventWheel:
    """Calendar queue of (cycle, component, payload) events.

    Components register once via :meth:`register` and receive an integer
    component id; ties at equal timestamps are broken by component id (i.e.
    registration order), then insertion order.  For single-component use,
    construct with ``single_component=True``: :meth:`schedule` /
    :meth:`pop_due` then skip the component machinery entirely while keeping
    the same deterministic FIFO-per-cycle ordering.
    """

    __slots__ = ("_buckets", "_cycle_heap", "_components", "_len", "_single")

    def __init__(self, single_component: bool = False) -> None:
        #: cycle -> list of (component_id, payload) — or bare payloads in
        #: single-component mode — in insertion order
        self._buckets: Dict[int, List[Any]] = {}
        #: min-heap with exactly one entry per non-empty bucket cycle
        self._cycle_heap: List[int] = []
        self._components: List[str] = []
        self._len = 0
        self._single = single_component

    # ------------------------------------------------------------------
    # Component registry (deterministic tie-breaking)
    # ------------------------------------------------------------------
    def register(self, name: str) -> int:
        """Register a component and return its tie-break id.

        Ids increase in registration order; at equal timestamps the wheel
        yields events of lower ids first, so a fixed registration sequence
        pins the intra-cycle processing order.
        """
        if self._single and self._components:
            raise ValueError("single-component wheel cannot register more components")
        self._components.append(name)
        return len(self._components) - 1

    def component_name(self, component_id: int) -> str:
        """Display name of a registered component (introspection/tests)."""
        return self._components[component_id]

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, cycle: int, payload: Any, component_id: int = 0) -> None:
        """Schedule ``payload`` for ``cycle`` on behalf of ``component_id``."""
        event = payload if self._single else (component_id, payload)
        bucket = self._buckets.get(cycle)
        if bucket is None:
            self._buckets[cycle] = [event]
            heapq.heappush(self._cycle_heap, cycle)
        else:
            bucket.append(event)
        self._len += 1

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._len

    def __bool__(self) -> bool:
        return self._len > 0

    def next_cycle(self) -> Optional[int]:
        """The earliest cycle holding a scheduled event, or ``None``."""
        heap = self._cycle_heap
        return heap[0] if heap else None

    # ------------------------------------------------------------------
    # Draining
    # ------------------------------------------------------------------
    def pop_due(self, cycle: int) -> List[Any]:
        """Remove and return payloads of every event due at or before ``cycle``.

        Events are returned cycle by cycle; within one cycle, sorted by
        component id (stable, so insertion order breaks remaining ties).
        Single-component buckets skip the sort — their insertion order
        already is the deterministic order.
        """
        heap = self._cycle_heap
        if not heap or heap[0] > cycle:
            return []
        buckets = self._buckets
        heappop = heapq.heappop
        single = self._single
        due: List[Any] = []
        while heap and heap[0] <= cycle:
            bucket = buckets.pop(heappop(heap))
            self._len -= len(bucket)
            if single:
                due += bucket
            else:
                if len(bucket) > 1:
                    # sort() is stable: equal ids keep insertion order.
                    bucket.sort(key=_component_of)
                for _, payload in bucket:
                    due.append(payload)
        return due

    def clear(self) -> None:
        """Drop every scheduled event (component registrations survive)."""
        self._buckets.clear()
        self._cycle_heap.clear()
        self._len = 0


def _component_of(event: Tuple[int, Any]) -> int:
    """Sort key for intra-cycle ordering (module level: no closure per pop)."""
    return event[0]
