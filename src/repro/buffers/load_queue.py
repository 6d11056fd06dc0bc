"""Load queue.

The load queue (LQ, 40 entries in Table II) tracks every in-flight load from
dispatch until its data has returned and the load has committed.  In this
reproduction it provides the back-pressure that limits how many loads the
pipeline can have outstanding, and records per-load timing used for the
latency statistics.  Its energy is excluded from the paper's results (it is
the same for every configuration), so no lookup events are charged here.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.stats import StatCounters


class LoadQueue:
    """Fixed-capacity queue of in-flight loads keyed by an opaque tag.

    Each entry is the load's issue cycle, the one fact the latency
    statistics need.
    """

    def __init__(self, entries: int = 40, stats: Optional[StatCounters] = None) -> None:
        if entries <= 0:
            raise ValueError("the load queue needs at least one entry")
        self.entries = entries
        self.stats = stats if stats is not None else StatCounters()
        #: tag -> issue cycle
        self._entries: Dict[Any, int] = {}
        # Per-access counters resolved to integer slots once (hot path).
        self._h_allocate = self.stats.handle("lq.allocate")
        self._h_total_latency = self.stats.handle("lq.total_latency")
        self._h_completed = self.stats.handle("lq.completed")

    # ------------------------------------------------------------------
    @property
    def occupancy(self) -> int:
        """Number of loads currently tracked."""
        return len(self._entries)

    @property
    def full(self) -> bool:
        """True when no further load can be dispatched."""
        return len(self._entries) >= self.entries

    def allocate_issued(self, tag: Any, cycle: int) -> None:
        """Insert a load that issues to the L1 interface this ``cycle``.

        The interfaces submit a load the cycle its address computation
        finishes, so dispatch and issue coincide.  Raises ``RuntimeError``
        when the queue is full and ``ValueError`` for a tag already present.
        The ``lq.allocate`` charge is left to the caller, which folds it
        into one fused submission bump.
        """
        if len(self._entries) >= self.entries:
            raise RuntimeError("load queue overflow")
        if tag in self._entries:
            raise ValueError(f"load {tag!r} already present in the load queue")
        self._entries[tag] = cycle

    def complete_release(self, tag: Any, cycle: int) -> None:
        """Record that the load's data returned in ``cycle`` and remove it.

        Charges the issue-to-completion latency to ``lq.total_latency`` and
        ``lq.completed``.  An unknown tag raises ``KeyError``: a completion
        for a load that was never allocated (or was already released) is a
        scheduler defect that must surface immediately, not drift the
        statistics.
        """
        issue_cycle = self._entries.pop(tag)
        self.stats.bump(self._h_total_latency, cycle - issue_cycle)
        self.stats.bump(self._h_completed)
