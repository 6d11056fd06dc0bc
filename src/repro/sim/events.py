"""Event-wheel scheduling for the event-driven simulation core.

The pipeline schedules every completion due more than one cycle out in an
:class:`EventWheel`; when no stage has work, the main loop asks the wheel
for the next cycle in which *anything* happens and jumps its clock straight
there.  A quiescent interface is the degenerate case of "no event
scheduled".

Determinism
-----------
Results must stay bit-identical to polling every component every cycle
(pinned by ``tests/golden/pipeline_identity.json``), so the wheel is
deterministic end to end:

* the wheel has one producer (the pipeline's completion scheduling), and
  events scheduled for the same cycle come back in insertion order;
* no hashing of event payloads is involved anywhere; buckets are plain
  lists keyed by integer cycle.

The wheel is a calendar queue: a dictionary of per-cycle buckets plus a
min-heap of *bucket* cycles.  Scheduling into an existing bucket is a plain
list append (no heap operation), which matters because completions cluster
heavily — a page group of four loads completes in the same cycle, and one
DRAM miss wakes several dependents at once.  The heap only ever holds one
entry per distinct scheduled cycle.
"""

from __future__ import annotations

import heapq
from typing import Any, Dict, List, Optional

__all__ = ["EventWheel"]


class EventWheel:
    """Calendar queue of (cycle, item) events from a single producer.

    Events due in the same cycle drain in insertion order (FIFO per cycle).
    """

    __slots__ = ("_buckets", "_cycle_heap", "_len")

    def __init__(self) -> None:
        #: cycle -> items in insertion order
        self._buckets: Dict[int, List[Any]] = {}
        #: min-heap with exactly one entry per non-empty bucket cycle
        self._cycle_heap: List[int] = []
        self._len = 0

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, cycle: int, item: Any) -> None:
        """Schedule ``item`` for ``cycle``."""
        bucket = self._buckets.get(cycle)
        if bucket is None:
            self._buckets[cycle] = [item]
            heapq.heappush(self._cycle_heap, cycle)
        else:
            bucket.append(item)
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
        """Remove and return the items of every event due at or before ``cycle``.

        Events are returned cycle by cycle, each cycle's in insertion order.
        """
        heap = self._cycle_heap
        if not heap or heap[0] > cycle:
            return []
        buckets = self._buckets
        heappop = heapq.heappop
        due: List[Any] = []
        while heap and heap[0] <= cycle:
            bucket = buckets.pop(heappop(heap))
            self._len -= len(bucket)
            due += bucket
        return due

    def clear(self) -> None:
        """Drop every scheduled event."""
        self._buckets.clear()
        self._cycle_heap.clear()
        self._len = 0
