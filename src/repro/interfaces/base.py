"""Shared machinery of the L1 interface models.

Every interface owns the structures that are identical across configurations
(load queue, store buffer, merge buffer — Table I keeps their sizes and port
counts equal for fairness), performs the store commit path (SB → MB → cache)
and tracks per-cycle address-computation slot usage.  Subclasses implement
the actual per-cycle servicing of loads and merge-buffer write-backs in
:meth:`BaseL1Interface._service_cycle`.

The pipeline talks to interfaces exclusively through the methods documented
in :mod:`repro.cpu.pipeline`; the simulator additionally reads the interface's
statistics.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import deque
from typing import Any, Deque, List, Optional, Tuple

from repro.buffers.load_queue import LoadQueue
from repro.buffers.merge_buffer import MergeBuffer
from repro.buffers.store_buffer import StoreBuffer
from repro.cache.l1_cache import L1DataCache
from repro.memory.address import AddressLayout, DEFAULT_LAYOUT
from repro.stats import StatCounters
from repro.tlb.tlb import TLBHierarchy

#: (tag, data_ready_cycle) notification returned to the pipeline
CompletedAccess = Tuple[Any, int]


class PendingWriteback:
    """A merge-buffer entry waiting for a cache write slot (slotted)."""

    __slots__ = ("virtual_line_address", "physical_line_address")

    def __init__(self, virtual_line_address: int) -> None:
        self.virtual_line_address = virtual_line_address
        self.physical_line_address: Optional[int] = None


class BaseL1Interface(ABC):
    """Common state and behaviour of the three interface models.

    Parameters
    ----------
    l1:
        The L1 data cache the interface accesses (its L2 and DRAM behind it).
    translation:
        The uTLB/TLB hierarchy used for address translation.
    stats:
        Shared statistics collection (the L1's when omitted).

    Each concrete interface fixes its per-cycle address-computation slots
    (Table I) as the class constants :attr:`load_slots` (dedicated load
    slots), :attr:`store_slots` (dedicated store slots) and
    :attr:`flexible_slots` (usable by either kind).
    """

    name = "base"
    load_slots: int
    store_slots: int
    flexible_slots: int
    # The per-load submission charge (interface and load queue counters).
    _combo_load_submit = (("interface.loads_submitted", 1), ("lq.allocate", 1))
    # The SB+MB lookup charges of the per-load forwarding search.
    _combo_fwd_full = (("sb.lookup_full", 1), ("mb.lookup_full", 1))
    _combo_fwd_split = (("sb.lookup_offset", 1), ("mb.lookup_offset", 1))

    def __init__(
        self,
        l1: L1DataCache,
        translation: TLBHierarchy,
        stats: Optional[StatCounters] = None,
        lq_entries: int = 40,
        sb_entries: int = 24,
        mb_entries: int = 4,
        layout: AddressLayout = DEFAULT_LAYOUT,
    ) -> None:
        self.l1 = l1
        self.translation = translation
        self.layout = layout
        self.stats = stats if stats is not None else l1.stats
        self.load_queue = LoadQueue(lq_entries, stats=self.stats)
        self.store_buffer = StoreBuffer(sb_entries, layout=layout, stats=self.stats)
        self.merge_buffer = MergeBuffer(mb_entries, layout=layout, stats=self.stats)
        self._pending_writebacks: Deque[PendingWriteback] = deque()
        self._cycle_loads_used = 0
        self._cycle_stores_used = 0
        self._cycle_flex_used = 0
        self._current_cycle = 0

    # ------------------------------------------------------------------
    # Per-cycle slot management (address computation units, Table I)
    # ------------------------------------------------------------------
    def begin_cycle(self, cycle: int) -> None:
        """Reset per-cycle slot usage; called by the pipeline first thing."""
        self._current_cycle = cycle
        self._cycle_loads_used = 0
        self._cycle_stores_used = 0
        self._cycle_flex_used = 0

    def reserve_load_slot(self) -> bool:
        """Claim an address-computation slot for a load this cycle."""
        if self._cycle_loads_used < self.load_slots:
            self._cycle_loads_used += 1
            return True
        if self._cycle_flex_used < self.flexible_slots:
            self._cycle_flex_used += 1
            return True
        return False

    def reserve_store_slot(self) -> bool:
        """Claim an address-computation slot for a store this cycle."""
        if self._cycle_stores_used < self.store_slots:
            self._cycle_stores_used += 1
            return True
        if self._cycle_flex_used < self.flexible_slots:
            self._cycle_flex_used += 1
            return True
        return False

    # ------------------------------------------------------------------
    # Acceptance checks (structural back-pressure)
    # ------------------------------------------------------------------
    @abstractmethod
    def can_accept_load(self) -> bool:
        """True when another load may be submitted this cycle.

        Each interface bounds its loads by the load queue and by the queue
        in front of its cache ports.
        """

    def can_accept_store(self) -> bool:
        """True when another store may be submitted this cycle."""
        return not self.store_buffer.full

    # ------------------------------------------------------------------
    # Submission and commit
    # ------------------------------------------------------------------
    def submit_load(self, tag: Any, address: int, size: int, cycle: int) -> None:
        """Accept a load whose address computation finished this cycle."""
        self.load_queue.allocate_issued(tag, cycle)
        self.stats.add_many(self._combo_load_submit)
        self._enqueue_load(tag, address, size)

    def submit_store(self, tag: Any, address: int, size: int, cycle: int) -> None:
        """Accept a store whose address computation finished this cycle."""
        self.store_buffer.insert(tag, address, size)
        self.stats.add("interface.stores_submitted")
        self._on_store_submitted(address, size, cycle)

    def commit_store(self, tag: Any, cycle: int) -> None:
        """The pipeline committed a store: it may now leave the store buffer."""
        self.store_buffer.mark_committed(tag)

    # ------------------------------------------------------------------
    # Store drain path (SB -> MB -> pending write-back)
    # ------------------------------------------------------------------
    def _drain_committed_stores(self) -> None:
        """Move one committed store into the merge buffer (Fig. 2b right path)."""
        entry = self.store_buffer.pop_committed()
        if entry is None:
            return
        _tag, virtual_address, _size = entry
        evicted = self.merge_buffer.commit_store(virtual_address)
        if evicted is not None:
            self._queue_writeback(evicted)

    def _queue_writeback(self, line_address: int) -> None:
        """Queue the line of an evicted merge-buffer entry for its cache write."""
        self._pending_writebacks.append(PendingWriteback(line_address))
        self.stats.add("interface.mbe_queued")

    # ------------------------------------------------------------------
    # Per-cycle servicing
    # ------------------------------------------------------------------
    def tick(self, cycle: int) -> List[CompletedAccess]:
        """Advance the interface by one cycle; return load completions."""
        if self.store_buffer.committed_count:
            self._drain_committed_stores()
        completions = self._service_cycle(cycle)
        if completions:
            complete_release = self.load_queue.complete_release
            for tag, ready in completions:
                complete_release(tag, ready)
        return completions

    # ------------------------------------------------------------------
    # Quiescence (pipeline idle fast-forward)
    # ------------------------------------------------------------------
    def quiescent(self) -> bool:
        """True when :meth:`tick` would be a pure no-op this and every
        following cycle until new work arrives.

        This is the interface's *next-activity* signal for the event-driven
        pipeline: it aggregates every component the interface owns (load
        queue, store buffer, merge buffer, pending write-backs, and — in the
        MALEC subclass — the input buffer and MBE backlog) into one "has an
        event scheduled" bit.  A non-quiescent interface has activity every
        cycle, so its next event is always the next cycle; a quiescent one
        has no event scheduled at all, and the pipeline neither ticks it nor
        counts it against clock jumps until a submit or a store commit
        re-arms it.  The PR-2 idle fast-forward (jumping a fully stalled
        machine to the next completion) falls out as the degenerate case.
        """
        return (
            not self._pending_writebacks
            and self.store_buffer.committed_count == 0
            and self._loads_quiescent()
        )

    def _loads_quiescent(self) -> bool:
        """Subclass hook: True when no load is queued before the cache."""
        return True

    @abstractmethod
    def _enqueue_load(self, tag: Any, address: int, size: int) -> None:
        """Store a submitted load until it can access the cache.

        Receives the raw submission fields; every interface queues them as
        one ``(tag, address, size)`` tuple (the baselines in front of their
        cache ports, MALEC in its Input Buffer).
        """

    def _on_store_submitted(self, address: int, size: int, cycle: int) -> None:
        """Subclass hook invoked when a store enters the store buffer."""

    @abstractmethod
    def _service_cycle(self, cycle: int) -> List[CompletedAccess]:
        """Perform this cycle's cache accesses; return load completions."""

    # ------------------------------------------------------------------
    # Shared helpers used by the concrete interfaces
    # ------------------------------------------------------------------
    def _forwarding_lookups(self, virtual_address: int, size: int, split: bool) -> None:
        """Search SB and MB for store-to-load forwarding (energy bookkeeping).

        All configurations perform these searches for every load; MALEC uses
        the split page/offset structures.  Each call charges one full-width
        (``sb.lookup_full``/``mb.lookup_full``) or offset-segment
        (``*.lookup_offset``, with ``split``) lookup on both buffers with
        one pattern.  The store buffer is scanned youngest first for a store
        overlapping ``[virtual_address, virtual_address + size)`` and the
        merge buffer for the load's line; each scan counts at most one
        ``*.forward_hit``.  Forwarding hits are counted but the load still
        accesses the cache, keeping the cache-access counts comparable
        across configurations (the paper excludes SB/MB energy).
        """
        stats = self.stats
        stats.add_many(self._combo_fwd_split if split else self._combo_fwd_full)
        end = virtual_address + size
        for _tag, start, length in reversed(self.store_buffer._entries):
            if start < end and virtual_address < start + length:
                stats.add("sb.forward_hit")
                break
        if (virtual_address & ~self.layout._line_offset_mask) in self.merge_buffer._entries:
            stats.add("mb.forward_hit")

    def _writeback_to_cache(self, writeback: PendingWriteback, way_hint: Optional[int] = None) -> None:
        """Perform the cache write of an evicted merge-buffer entry."""
        if writeback.physical_line_address is None:
            physical, _ = self.translation.translate_pair(writeback.virtual_line_address)
            writeback.physical_line_address = self.layout.line_address(physical)
        self.l1.store_parts(writeback.physical_line_address, way_hint=way_hint)
        self.stats.add("interface.mbe_written")

    # ------------------------------------------------------------------
    # End-of-run drain
    # ------------------------------------------------------------------
    def finalize(self, cycle: int) -> None:
        """Flush remaining committed stores and merge-buffer entries.

        Called once by the pipeline after the last instruction commits so
        that every configuration accounts for the same amount of store
        traffic; the flush has no timing effect.
        """
        # Drain the store buffer completely.
        while self.store_buffer.committed_count:
            self._drain_committed_stores()
        for line_address in self.merge_buffer.drain():
            self._queue_writeback(line_address)
        while self._pending_writebacks:
            self._writeback_to_cache(self._pending_writebacks.popleft())
