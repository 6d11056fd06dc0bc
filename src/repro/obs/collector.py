"""Per-run observation collector: cycle categories and sampled occupancy.

A :class:`RunCollector` rides along one pipeline run (attach it through
``Simulator.run(..., options=RunOptions(collector=...))`` or
``run_configuration``).  The event-driven loop classifies every *simulated*
cycle into exactly one category and, every ``sample_every`` counted cycles,
snapshots the occupancy of the pipeline-visible structures (ROB, load queue,
store buffer, merge buffer).  Both feed the two obs views:

* the cycle-attribution report (:mod:`repro.obs.attribution`) — the
  categories below partition the run, so their counts **sum to the total
  cycle count** by construction;
* the sampled simulator timeline (:mod:`repro.obs.traceevent`) — the
  occupancy series render as Chrome trace-event counter tracks over the
  cycle axis.

Categories (one per cycle, first match wins):

``commit``
    At least one instruction committed this cycle (the machine made
    architectural progress).
``issue``
    No commit, but at least one instruction issued (work entered the
    backend).
``frontend``
    No commit/issue, but instructions were fetched/dispatched (the front
    end was filling the window).
``memory_wait``
    Nothing issued or committed while the L1 interface was actively
    servicing accesses — the classic cache/DRAM shadow.
``buffer_stall``
    Nothing happened and ready memory ops sat deferred — blocked on
    address-computation slots or full load-queue/store-buffer structures.
``idle_wait``
    A fully quiet cycle the loop still simulated (waiting on a future
    completion without jumping).
``fast_forwarded``
    Cycles the event scheduler skipped outright (idle stretches jumped in
    one step); attributed here, never simulated.

Collection is strictly additive: the collector never touches the
:class:`~repro.stats.StatCounters` results, so attaching one cannot perturb
golden bit-identity (the obs-off identity tests pin this).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

__all__ = ["RunCollector", "CYCLE_CATEGORIES"]

#: category names in presentation order (also the attribution row order)
CYCLE_CATEGORIES: Tuple[str, ...] = (
    "commit",
    "issue",
    "frontend",
    "memory_wait",
    "buffer_stall",
    "idle_wait",
    "fast_forwarded",
)


class RunCollector:
    """Collects cycle categories and occupancy samples for one run.

    Parameters
    ----------
    sample_every:
        Snapshot structure occupancy every N *counted* cycles (0 disables
        sampling; categories are always collected).  Samples cover only
        simulated cycles — fast-forwarded stretches appear as gaps, which
        is the honest rendering (nothing moved during them).
    """

    def __init__(self, sample_every: int = 0) -> None:
        if sample_every < 0:
            raise ValueError("sample_every must be >= 0")
        self.sample_every = sample_every
        #: category -> cycle count (every category always present)
        self.cycle_categories: Dict[str, int] = {
            name: 0 for name in CYCLE_CATEGORIES
        }
        #: (cycle, rob, load_queue, store_buffer, merge_buffer) samples
        self.samples: List[Tuple[int, int, int, int, int]] = []
        #: events dispatched through the run's event wheel (incl. the
        #: next-cycle bucket, which is the wheel's one-cycle fast path)
        self.events_dispatched = 0
        #: total cycles of the run as the pipeline reported them
        self.total_cycles = 0
        #: committed instructions
        self.instructions = 0

    # ------------------------------------------------------------------
    # Pipeline-facing API (called once per run, from flush paths)
    # ------------------------------------------------------------------
    def record_categories(
        self,
        commit: int,
        issue: int,
        frontend: int,
        memory_wait: int,
        buffer_stall: int,
        idle_wait: int,
        fast_forwarded: int,
    ) -> None:
        """Flush the per-category cycle counts accumulated in loop locals."""
        categories = self.cycle_categories
        categories["commit"] += commit
        categories["issue"] += issue
        categories["frontend"] += frontend
        categories["memory_wait"] += memory_wait
        categories["buffer_stall"] += buffer_stall
        categories["idle_wait"] += idle_wait
        categories["fast_forwarded"] += fast_forwarded

    def record_run(self, total_cycles: int, instructions: int, events: int) -> None:
        """Record run totals (cycle count, instruction count, wheel events)."""
        self.total_cycles += total_cycles
        self.instructions += instructions
        self.events_dispatched += events

    def sample(self, cycle: int, rob: int, lq: int, sb: int, mb: int) -> None:
        """Record one occupancy snapshot at ``cycle``."""
        self.samples.append((cycle, rob, lq, sb, mb))

    # ------------------------------------------------------------------
    # Consumers
    # ------------------------------------------------------------------
    @property
    def attributed_cycles(self) -> int:
        """Sum over all categories (equals ``total_cycles`` after a run)."""
        return sum(self.cycle_categories.values())
