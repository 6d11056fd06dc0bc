"""The DSE engine: evaluate candidates through the campaign layer, extract
Pareto frontiers over the energy/performance plane.

:func:`run_dse` is the one entry point behind the ``repro dse`` CLI, the
examples and the tests.  Evaluation batches are expressed as ordinary
:class:`~repro.campaign.spec.CampaignSpec` grids — the space's baseline
configuration plus the scheduled candidates over the space's benchmarks —
and executed by :class:`~repro.campaign.executor.ParallelExecutor`, so:

* ``jobs`` fans each batch out over worker processes, one pool for the
  whole search, whose workers are joined before :func:`run_dse` returns;
* an attached :class:`~repro.campaign.store.ResultStore` persists every
  cell under its content-hash key, which makes exploration resumable after
  an interrupt and deduplicates evaluations *across strategies* (a halving
  rung, a random sample and a grid sweep that touch the same cell all share
  one record);
* results are bit-identical for any job count, so the extracted frontier is
  a pure function of (space, strategy, seed, budget, objectives).
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.campaign.backends import atomic_write_text
from repro.campaign.executor import ParallelExecutor, ProgressCallback
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import ResultStore
from repro.dse.objectives import (
    DEFAULT_OBJECTIVES,
    Objective,
    objective_values,
    resolve_objectives,
)
from repro.dse.pareto import ParetoPoint, frontier_and_ranks
from repro.dse.space import SearchSpace, format_value
from repro.dse.strategies import (
    EvaluatedCandidate,
    SearchStrategy,
    strategy_by_name,
)
from repro.obs import metrics as obs_metrics
from repro.obs.logs import get_logger

logger = get_logger(__name__)


class Evaluator:
    """Turns (space indices, trace length) into evaluated candidates.

    One evaluator is shared by all rungs of a search, accumulating the
    simulated/resumed cell counts across batches.  Every batch runs on its
    one :class:`~repro.campaign.executor.ParallelExecutor`, which opens the
    store once, so the batches of a search write through one
    :class:`ResultStore`: the JSON store's manifest conflict detection is
    per writer, and they are the same writer.  :func:`run_dse` runs the
    search inside ``with evaluator.executor:``, so the batches share one
    process pool too.
    """

    def __init__(
        self,
        space: SearchSpace,
        objectives: Sequence[Objective],
        jobs: Optional[int] = None,
        store: Optional[Union[str, ResultStore]] = None,
        progress: Optional[ProgressCallback] = None,
        trace_log=None,
    ) -> None:
        self.space = space
        self.objectives = tuple(objectives)
        self.executor = ParallelExecutor(
            jobs=jobs, store=store, progress=progress, trace_log=trace_log
        )
        #: optional TraceEventLog: each batch becomes a span on the parent's
        #: track (its boundary doubles as the halving-rung marker) and the
        #: executor adds per-worker cell spans inside it
        self.trace_log = trace_log
        self.simulated = 0
        self.resumed = 0
        self.batches = 0

    # ------------------------------------------------------------------
    def evaluate(
        self, indices: Sequence[int], instructions: int
    ) -> List[EvaluatedCandidate]:
        """Evaluate the given space points on traces of ``instructions``.

        The baseline configuration rides along in every batch (its cells
        dedupe through the store), so objectives always normalize against
        a baseline simulated at the same trace length.
        """
        space = self.space
        candidates = space.candidates(indices)
        spec = CampaignSpec(
            name=f"dse-{space.name}",
            configurations=(space.baseline,) + tuple(c.config for c in candidates),
            benchmarks=space.benchmarks,
            instructions=instructions,
            warmup_fraction=space.warmup_fraction,
            seed=space.seed,
        )
        executor = self.executor
        batch_start = time.time()
        results = executor.run(spec)
        batch_end = time.time()
        self.simulated += len(executor.completed_cells)
        self.resumed += len(executor.skipped_cells)
        self.batches += 1
        logger.debug(
            "dse %s: batch %d evaluated %d candidates at %d instructions "
            "(%d simulated, %d resumed)",
            space.name,
            self.batches,
            len(candidates),
            instructions,
            len(executor.completed_cells),
            len(executor.skipped_cells),
        )
        if self.trace_log is not None:
            pid = os.getpid()
            self.trace_log.name_process(pid, "repro")
            # The batch span brackets its cells; for successive-halving
            # searches each batch *is* one rung, so the span boundary is the
            # rung boundary, with the instant event marking its start.
            self.trace_log.add_instant(
                f"rung {self.batches}",
                "dse.rung",
                batch_start * 1e6,
                pid=pid,
                args={"candidates": len(candidates), "instructions": instructions},
            )
            self.trace_log.add_span(
                f"batch {self.batches} ({len(candidates)} candidates)",
                "dse.batch",
                batch_start * 1e6,
                (batch_end - batch_start) * 1e6,
                pid=pid,
                tid=1,
                args={"instructions": instructions},
            )
        if obs_metrics.enabled():
            registry = obs_metrics.registry
            registry.counter("dse.batches").inc()
            registry.counter("dse.cells_simulated").inc(
                len(executor.completed_cells)
            )
            registry.counter("dse.cells_resumed").inc(len(executor.skipped_cells))

        keys = tuple(objective.key for objective in self.objectives)
        values = objective_values(
            results,
            [candidate.name for candidate in candidates],
            space.baseline.name,
            self.objectives,
        )
        return [
            EvaluatedCandidate(
                index=candidate.index,
                name=candidate.name,
                assignment=candidate.assignment,
                instructions=instructions,
                objective_keys=keys,
                values=candidate_values,
            )
            for candidate, candidate_values in zip(candidates, values)
        ]


@dataclass
class DseResult:
    """Everything one design-space exploration produced."""

    space: SearchSpace
    strategy: str
    objective_keys: Tuple[str, ...]
    #: every evaluation performed, in schedule order (all rungs)
    evaluations: List[EvaluatedCandidate] = field(default_factory=list)
    #: full-trace-length evaluations eligible for the frontier, index order
    pool: List[EvaluatedCandidate] = field(default_factory=list)
    #: the non-dominated subset of ``pool``, deterministic order
    frontier: List[EvaluatedCandidate] = field(default_factory=list)
    #: dominance rank (0 = frontier) of every pool candidate, by name
    ranks: Dict[str, int] = field(default_factory=dict)
    #: cells freshly simulated / loaded from the store across all batches
    cells_simulated: int = 0
    cells_resumed: int = 0

    def describe(self) -> dict:
        """JSON-able manifest of the exploration (stored as ``dse.json``)."""
        return {
            "space": self.space.describe(),
            "strategy": self.strategy,
            "objectives": list(self.objective_keys),
            "evaluations": len(self.evaluations),
            "pool": len(self.pool),
            "frontier": [
                {
                    "name": candidate.name,
                    # format_value: enum-valued dimensions (e.g. the
                    # interface kind) must stay JSON-serializable here.
                    "assignment": {
                        key: format_value(value)
                        for key, value in candidate.assignment
                    },
                    "objectives": candidate.objectives,
                }
                for candidate in self.frontier
            ],
            "cells_simulated": self.cells_simulated,
            "cells_resumed": self.cells_resumed,
        }


def extract_frontier(
    pool: Sequence[EvaluatedCandidate],
) -> Tuple[List[EvaluatedCandidate], Dict[str, int]]:
    """Frontier and dominance ranks of full-length evaluations.

    Points enter the dominance computation sorted by space index, so the
    outcome is independent of the order strategies delivered them.  The
    frontier is rank 0 of the non-dominated sort (one dominance pass),
    presented in :func:`~repro.dse.pareto.pareto_frontier`'s deterministic
    (values, label) order.
    """
    ordered = sorted(pool, key=lambda candidate: candidate.index)
    points = [
        ParetoPoint(label=c.name, values=c.values, payload=c) for c in ordered
    ]
    frontier, ranks = frontier_and_ranks(points)
    return [point.payload for point in frontier], ranks


def run_dse(
    space: SearchSpace,
    strategy: str = "grid",
    objectives: Sequence[str] = DEFAULT_OBJECTIVES,
    budget: Optional[int] = None,
    jobs: Optional[int] = None,
    store=None,
    seed: int = 0,
    progress: Optional[ProgressCallback] = None,
    trace_log=None,
) -> DseResult:
    """Explore ``space`` and return its Pareto frontier.

    Parameters mirror the ``repro dse`` CLI: ``strategy`` is one of
    ``grid``/``random``/``halving``, ``budget`` caps the number of
    candidates, ``jobs``/``store`` are forwarded to the campaign executor
    (making the search parallel and resumable; ``store`` accepts a
    :class:`~repro.campaign.store.ResultStore` or a store URL such as
    ``json:results/dir`` or ``sqlite:results.db``), and ``seed`` feeds the
    sampling strategies.  ``trace_log`` optionally records batch/rung spans
    and per-worker cell spans as Chrome trace events (``--trace-out``).  The
    returned frontier is bit-identical for any ``jobs`` value and across
    interrupt/resume cycles of the same store.
    """
    resolved = resolve_objectives(tuple(objectives))
    search: SearchStrategy = (
        strategy if isinstance(strategy, SearchStrategy) else strategy_by_name(strategy, seed=seed)
    )
    evaluator = Evaluator(
        space, resolved, jobs=jobs, store=store, progress=progress,
        trace_log=trace_log,
    )
    # One pool serves every batch of the search; it is joined on the way out.
    with evaluator.executor:
        pool, trail = search.run(space, evaluator, budget=budget)
    pool = sorted(pool, key=lambda candidate: candidate.index)
    frontier, ranks = extract_frontier(pool)
    result = DseResult(
        space=space,
        strategy=search.key,
        objective_keys=tuple(objective.key for objective in resolved),
        evaluations=trail,
        pool=pool,
        frontier=frontier,
        ranks=ranks,
        cells_simulated=evaluator.simulated,
        cells_resumed=evaluator.resumed,
    )
    store = evaluator.executor.store
    if store is not None:
        atomic_write_text(
            store.root / "dse.json",
            json.dumps(result.describe(), indent=1, sort_keys=True),
        )
    return result
