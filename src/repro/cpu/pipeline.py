"""Cycle-level out-of-order pipeline driving an L1 interface model.

The pipeline implements the processor-side behaviour the paper's evaluation
depends on (Table II): a 168-entry ROB, 6-wide fetch/dispatch, 8-wide issue
and in-order commit.  Memory instructions are handed to an *L1 interface
model* (Base1ldst, Base2ld1st or MALEC) which owns the address-computation
slots, the load/store/merge buffers, translation and the cache; the pipeline
only sees per-cycle slot availability and load-completion notifications.

The interface object must provide the following methods (duck-typed so the
interface package does not need to import this module)::

    begin_cycle(cycle)
    can_accept_load() / can_accept_store()        -> bool
    reserve_load_slot() / reserve_store_slot()    -> bool   (per-cycle slots)
    submit_load(tag, address, size, cycle)
    submit_store(tag, address, size, cycle)
    commit_store(tag, cycle)
    tick(cycle)  -> list[(tag, data_ready_cycle)]
    finalize(cycle)                                (drain write buffers)
    quiescent() -> bool                            (idle detection)

and, for a run with a collector that samples occupancy, the ``load_queue``,
``store_buffer`` and ``merge_buffer`` attributes, each with an
``occupancy`` count.  An interface whose ``quiescent()`` is always False is
ticked every cycle and never lets the clock jump.

Pipeline widths come from :class:`repro.sim.config.PipelineParameters`.  A
compute instruction always completes the cycle after it issues.

Execution time is the cycle in which the last instruction commits, which is
what Fig. 4a normalizes across configurations.

Input
-----
``run`` consumes a columnar trace: a
:class:`~repro.workloads.columnar.ColumnarTrace` or one of its ``run_slice``
windows.  The fetch stage walks a ``range`` of sequence numbers and every
fact comes from the view's seq-indexed arrays.  Any other input — a
:class:`~repro.workloads.trace.MemoryTrace`, a plain list of Instructions —
is adapted once at entry by :func:`repro.workloads.columnar.as_columnar`.

Event-driven scheduler
----------------------
A specialized kernel (:mod:`repro.sim.kernels`) runs every production
simulation; the loop here is the plain oracle the kernels are held to, and
runs only when :meth:`repro.sim.simulator.Simulator.run` selects it (the
generic kernel, or a collector attached).  Instead of polling every stage
every cycle, each source of future activity says when it next acts:

* one heap of ``(cycle, seq)`` holds every pending completion: computes and
  stores complete the cycle after they issue, a load when the interface
  returns its data, and the retire stage pops whatever is due;
* the issue stage runs only while ready or deferred instructions exist;
* the L1 interface ticks only while it reports itself non-quiescent (it
  aggregates its components — load queue, store buffer, merge buffer, input
  buffer, cache banks — into that single next-activity signal; a submit or
  store commit re-arms it);
* commit and fetch are gated by their own cheap occupancy checks.

When no stage has work in the current cycle and a completion is pending,
the clock jumps straight to the earliest one.  All skipped cycles are
accounted into ``pipeline.cycles`` exactly as if they had been simulated,
and intra-cycle ordering is pinned (fixed stage order, seq-ordered ready
heap; a completion only wakes consumers onto that heap, so the order in
which one cycle's completions retire does not matter), so results equal
those of polling every component every cycle
(``tests/golden/pipeline_identity.json`` pins them).
``fast_forwarded_cycles`` records how many cycles the last run skipped.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional, Tuple

from repro.sim.config import PipelineParameters
from repro.stats import StatCounters


@dataclass
class PipelineResult:
    """Summary of one pipeline run."""

    cycles: int
    instructions: int
    loads: int
    stores: int
    computes: int

    @property
    def ipc(self) -> float:
        """Committed instructions per cycle."""
        return self.instructions / self.cycles if self.cycles else 0.0


class OutOfOrderPipeline:
    """Dependency-driven, resource-limited out-of-order execution model."""

    def __init__(
        self,
        interface,
        params: PipelineParameters = PipelineParameters(),
        stats: Optional[StatCounters] = None,
        max_cycles: Optional[int] = None,
        collector=None,
        kernel=None,
    ) -> None:
        self.interface = interface
        self.params = params
        self.stats = stats if stats is not None else StatCounters()
        self.max_cycles = max_cycles
        #: optional repro.obs.collector.RunCollector (duck-typed so this
        #: module does not import obs).  Strictly observational: category
        #: counts and occupancy samples accumulate in loop locals and flush
        #: once per run, and nothing it collects feeds back into stats or
        #: results — attaching one cannot perturb bit-identity.
        self.collector = collector
        #: optional specialized kernel entry point (see repro.sim.kernels):
        #: kernel_run(pipeline, seqs, total, capacity, trace_arrays) returning
        #: a PipelineResult; it raises RuntimeError when its runtime guards
        #: find a pipeline it was not generated for.
        self.kernel = kernel
        #: whether the last run() executed through the specialized kernel
        self.kernel_used = False
        #: idle cycles skipped (event jumps) in the last run()
        self.fast_forwarded_cycles = 0

    # ------------------------------------------------------------------
    def run(self, trace) -> PipelineResult:
        """Execute ``trace`` to completion and return the cycle count.

        ``trace`` is recognised as columnar by its
        ``columnar_pipeline_plan()`` protocol; anything else is adapted
        once through :func:`~repro.workloads.columnar.as_columnar`, which
        never writes to the caller's Instruction objects.
        """
        plan = getattr(trace, "columnar_pipeline_plan", None)
        if plan is None:
            # Lazy import: the workloads package pulls in repro.obs, which
            # imports the simulator and so this module.
            from repro.workloads.columnar import as_columnar

            plan = as_columnar(trace).columnar_pipeline_plan
        seqs, total, capacity, trace_arrays = plan()
        self.kernel_used = False
        self.fast_forwarded_cycles = 0
        if total == 0:
            return PipelineResult(cycles=0, instructions=0, loads=0, stores=0, computes=0)
        kernel = self.kernel
        if kernel is not None:
            result = kernel(self, seqs, total, capacity, trace_arrays)
            self.kernel_used = True
            return result
        return self._run_event_driven(seqs, total, capacity, trace_arrays)

    # ------------------------------------------------------------------
    # Event-driven scheduler
    # ------------------------------------------------------------------
    def _run_event_driven(
        self,
        seqs,
        total: int,
        capacity: int,
        trace_arrays,
    ) -> PipelineResult:
        """Event-driven execution: stages run only when they have events.

        Parallel seq-indexed arrays carry the issued/completed flags and
        dependency counts, and the ROB is a deque of seqs.  ``seqs`` is the
        ``range`` of the run's sequence numbers in fetch order — the loop's
        only view of the trace besides ``trace_arrays``.
        """
        params = self.params
        max_cycles = self.max_cycles or (200 * total + 100_000)
        issue_width = params.issue_width
        fetch_width = params.fetch_width
        commit_width = params.commit_width
        rob_entries = params.rob_entries
        interface = self.interface
        heappush = heapq.heappush
        heappop = heapq.heappop

        #: the ROB as a deque of seqs (program order)
        rob_q: Deque[int] = deque()
        #: min-heap of (cycle, seq): every completion not yet retired
        completions: List[Tuple[int, int]] = []

        next_fetch = 0
        committed = 0
        cycle = 0
        last_commit_cycle = 0

        #: seq -> dispatched-and-not-yet-committed flag
        in_rob = bytearray(capacity)
        #: seq -> issued flag
        issued_f = bytearray(capacity)
        #: seq -> completed flag (the instruction's result is available)
        completed_f = bytearray(capacity)
        #: seq -> outstanding producer count while dispatched
        pending_deps = [0] * capacity
        #: seq-indexed instruction facts (shared across runs of one trace)
        kinds, addresses, sizes, producers_of = trace_arrays
        #: seq -> waiting consumer seqs (None when nobody waits)
        consumers: List[Optional[List[int]]] = [None] * capacity
        #: min-heap of ready seqs (oldest first): ready at dispatch or woken
        #: by their last completing producer
        ready_heap: List[int] = []
        #: memory ops that were ready but found no slot this cycle, plus any
        #: ready instructions beyond this cycle's issue width (ascending seq)
        deferred: List[int] = []
        deferred_has_load = False
        #: True while ``deferred`` may hold more than slot-starved stores
        #: (issue-width leftovers of unknown kind block clock jumps)
        deferred_blocking = False
        #: stores must claim store-buffer entries in program order (as real
        #: store queues allocate at dispatch); otherwise younger stores can
        #: fill the SB and deadlock an older store at the ROB head.
        store_order: List[int] = []
        store_order_head = 0

        loads = stores = computes = 0
        issued_total = 0

        # Observation plumbing: every cycle is classified into exactly one
        # category (deltas of the loop's own counters decide which), tallied
        # in locals and flushed into the collector once after the run.
        collector = self.collector
        collecting = collector is not None
        cat_commit = cat_issue = cat_frontend = 0
        cat_memory = cat_buffer = cat_idle = cat_ff = 0
        events_seen = 0
        sample_every = collector.sample_every if collecting else 0
        next_sample = sample_every or float("inf")

        # The interface may carry state from a warm-up run of the same trace;
        # start ticking it unless it positively reports itself idle.
        interface_active = not interface.quiescent()

        while committed < total:
            if cycle > max_cycles:
                raise RuntimeError(
                    f"pipeline exceeded {max_cycles} cycles; likely deadlock "
                    f"({committed}/{total} committed)"
                )
            if collecting:
                commit_before = committed
                issue_before = issued_total
                fetch_before = next_fetch

            # ----------------------------------------------------------
            # 1. Retire completions due by this cycle.  Their order does
            #    not affect outcomes: waking a consumer only pushes onto
            #    the ready heap, which issues in seq order regardless.
            # ----------------------------------------------------------
            while completions and completions[0][0] <= cycle:
                seq = heappop(completions)[1]
                if collecting:
                    events_seen += 1
                if completed_f[seq]:
                    continue
                completed_f[seq] = 1
                waiting = consumers[seq]
                if waiting is not None:
                    consumers[seq] = None
                    for consumer in waiting:
                        left = pending_deps[consumer] - 1
                        pending_deps[consumer] = left
                        if left == 0 and not issued_f[consumer]:
                            heappush(ready_heap, consumer)

            # ----------------------------------------------------------
            # 2. Issue ready instructions (oldest first, up to issue width).
            #    The stage only runs while instructions are ready/deferred.
            #    The deferred list and the ready heap are merged by seq.
            # ----------------------------------------------------------
            if ready_heap or deferred:
                interface.begin_cycle(cycle)  # reset the per-cycle slot counters
                issued = 0
                postponed: List[int] = []
                postponed_load = False
                loads_blocked = stores_blocked = False
                di = 0
                dn = len(deferred)
                while issued < issue_width:
                    if di < dn and not (ready_heap and ready_heap[0] < deferred[di]):
                        seq = deferred[di]
                        di += 1
                    elif ready_heap:
                        seq = heappop(ready_heap)
                    else:
                        break
                    if not in_rob[seq] or issued_f[seq]:
                        continue
                    kind = kinds[seq]
                    if kind == 0:  # compute: completes next cycle
                        issued_f[seq] = 1
                        heappush(completions, (cycle + 1, seq))
                        issued += 1
                    elif kind == 1:  # load
                        if (
                            not loads_blocked
                            and interface.can_accept_load()
                            and interface.reserve_load_slot()
                        ):
                            issued_f[seq] = 1
                            interface.submit_load(seq, addresses[seq], sizes[seq], cycle)
                            interface_active = True
                            issued += 1
                        else:
                            # Out of load slots this cycle: keep the load for
                            # the next cycle but let younger computes proceed.
                            loads_blocked = True
                            postponed.append(seq)
                            postponed_load = True
                    else:  # store
                        in_store_order = (
                            store_order_head < len(store_order)
                            and store_order[store_order_head] == seq
                        )
                        if (
                            not stores_blocked
                            and in_store_order
                            and interface.can_accept_store()
                            and interface.reserve_store_slot()
                        ):
                            store_order_head += 1
                            issued_f[seq] = 1
                            interface.submit_store(seq, addresses[seq], sizes[seq], cycle)
                            interface_active = True
                            # Stores produce no register value: they are
                            # complete (for commit) once their address is
                            # computed.
                            heappush(completions, (cycle + 1, seq))
                            issued += 1
                        else:
                            stores_blocked = True
                            postponed.append(seq)
                # Unattempted deferred leftovers (issue width exhausted) stay
                # deferred; they are younger than everything in ``postponed``
                # (the merge consumed strictly older seqs first), so appending
                # keeps the list ascending.  Their kind is unknown here, so
                # they block clock jumps until re-examined.
                if di < dn:
                    postponed += deferred[di:]
                    deferred_blocking = True
                else:
                    deferred_blocking = False
                deferred = postponed
                deferred_has_load = postponed_load
                issued_total += issued

            # ----------------------------------------------------------
            # 3. Advance the interface while it has scheduled activity;
            #    schedule load completions, no earlier than next cycle.
            # ----------------------------------------------------------
            if interface_active:
                for tag, ready_cycle in interface.tick(cycle):
                    if not 0 <= tag < capacity or not in_rob[tag] or completed_f[tag]:
                        continue
                    heappush(completions, (max(ready_cycle, cycle + 1), tag))

            # ----------------------------------------------------------
            # 4. Commit in order.
            # ----------------------------------------------------------
            if rob_q and completed_f[rob_q[0]]:
                commits = 0
                while commits < commit_width and rob_q and completed_f[rob_q[0]]:
                    seq = rob_q.popleft()
                    commits += 1
                    committed += 1
                    last_commit_cycle = cycle
                    kind = kinds[seq]
                    if kind == 1:
                        loads += 1
                    elif kind == 2:
                        stores += 1
                        interface.commit_store(seq, cycle)
                        # The committed store must now drain SB -> MB -> cache.
                        interface_active = True
                    else:
                        computes += 1
                    in_rob[seq] = 0
                    consumers[seq] = None

            # ----------------------------------------------------------
            # 5. Fetch / dispatch into the ROB.
            # ----------------------------------------------------------
            if next_fetch < total:
                fetched = 0
                while (
                    fetched < fetch_width
                    and next_fetch < total
                    and len(rob_q) < rob_entries
                ):
                    seq = seqs[next_fetch]
                    rob_q.append(seq)
                    in_rob[seq] = 1
                    if kinds[seq] == 2:
                        store_order.append(seq)
                    pending = 0
                    producers = producers_of[seq]
                    if producers:
                        for producer in producers:
                            # A producer before this run's slice (or already
                            # committed) is not in the ROB and counts as done.
                            if completed_f[producer] or not in_rob[producer]:
                                continue
                            waiting = consumers[producer]
                            if waiting is None:
                                waiting = consumers[producer] = []
                            waiting.append(seq)
                            pending += 1
                        pending_deps[seq] = pending
                    if pending == 0:
                        # Younger than every dispatched seq: never sifts.
                        heappush(ready_heap, seq)
                    next_fetch += 1
                    fetched += 1

            # ----------------------------------------------------------
            # Observation: classify this cycle (one category per counted
            # cycle; first match wins) and sample structure occupancy.
            # ``interface_active`` still reflects activity *during* this
            # cycle — the disarm check below runs after classification.
            # ``cycle + 1`` counts the cycles simulated so far.
            # ----------------------------------------------------------
            if collecting:
                if committed > commit_before:
                    cat_commit += 1
                elif issued_total > issue_before:
                    cat_issue += 1
                elif next_fetch > fetch_before:
                    cat_frontend += 1
                elif interface_active:
                    cat_memory += 1
                elif deferred:
                    cat_buffer += 1
                else:
                    cat_idle += 1
                if cycle + 1 >= next_sample:
                    next_sample += sample_every
                    collector.sample(
                        cycle,
                        len(rob_q),
                        interface.load_queue.occupancy,
                        interface.store_buffer.occupancy,
                        interface.merge_buffer.occupancy,
                    )

            cycle += 1

            # ----------------------------------------------------------
            # 6. Re-arm / disarm the interface event: after a tick (and any
            #    store commits) the interface either still has work next
            #    cycle or reports itself quiescent, in which case its event
            #    is descheduled until a submit or commit re-arms it.
            # ----------------------------------------------------------
            if interface_active and interface.quiescent():
                interface_active = False

            # ----------------------------------------------------------
            # 7. No event scheduled for this cycle: jump the clock to the
            #    next completion.  Every skipped cycle would have been a
            #    complete no-op (nothing to retire/issue/tick/commit/fetch),
            #    so only the cycle counter advances — results stay
            #    bit-identical.
            #
            #    Deferred memory ops require care: their issue attempt used
            #    *pre-tick* state, but this cycle's tick may have released
            #    the back-pressure that blocked them.  A quiescent interface
            #    holds no unserviced loads, so its load queue is drained and
            #    a deferred *load* would always issue next cycle — never
            #    jump then.  A deferred *store* can only issue next cycle if
            #    it heads the program-order store sequence and the store
            #    buffer has room; both are stable until a commit or a
            #    completion event, so anything else is safe to jump across.
            # ----------------------------------------------------------
            if (
                not ready_heap
                and not interface_active
                and completions
                and completions[0][0] > cycle
                and (next_fetch >= total or len(rob_q) >= rob_entries)
                and committed < total
                and not (rob_q and completed_f[rob_q[0]])
                and (
                    not deferred
                    or (
                        not deferred_blocking
                        and not deferred_has_load
                        and (
                            store_order_head >= len(store_order)
                            or store_order[store_order_head] not in deferred
                            or not interface.can_accept_store()
                        )
                    )
                )
            ):
                skipped = completions[0][0] - cycle
                self.fast_forwarded_cycles += skipped
                if collecting:
                    cat_ff += skipped
                cycle += skipped

        total_cycles = last_commit_cycle + 1
        interface.finalize(total_cycles)
        # Flush the run's counters in one shot: the clock counts every
        # simulated and skipped cycle, and every fetched seq was dispatched.
        stats = self.stats
        stats.add("pipeline.issued", issued_total)
        stats.add("pipeline.cycles", cycle)
        stats.add("pipeline.dispatched", next_fetch)
        stats.set("pipeline.total_cycles", total_cycles)
        stats.set("pipeline.committed", committed)
        if collecting:
            # Every loop iteration classified exactly one counted cycle and
            # every jump accounted its skipped stretch, so the categories sum
            # to the final clock == ``total_cycles`` by construction.
            collector.record_categories(
                cat_commit,
                cat_issue,
                cat_frontend,
                cat_memory,
                cat_buffer,
                cat_idle,
                cat_ff,
            )
            collector.record_run(total_cycles, total, events_seen)
        return PipelineResult(
            cycles=total_cycles,
            instructions=total,
            loads=loads,
            stores=stores,
            computes=computes,
        )
