"""Design-space exploration over the energy/performance plane.

The paper argues one point of a trade-off curve: MALEC buys L1-subsystem
energy savings at a small performance cost, and Sec. VI-D samples a handful
of sensitivity points by hand.  This package automates the search over the
whole configuration space:

* :mod:`repro.dse.space` — declarative :class:`SearchSpace` grids over
  configuration knobs, with named presets (``malec-mini``,
  ``malec-sensitivity``);
* :mod:`repro.dse.strategies` — exhaustive grid, seeded random sampling and
  adaptive successive halving (short traces for everyone, full length for
  survivors);
* :mod:`repro.dse.objectives` — minimized axes (normalized runtime, L1+TLB
  energy, energy-delay product) computed against a fixed baseline;
* :mod:`repro.dse.pareto` — dominance, frontier extraction and NSGA-style
  dominance ranks;
* :mod:`repro.dse.engine` — :func:`run_dse`, which routes every evaluation
  through the campaign executor and content-hash-keyed result store, so
  exploration is parallel, resumable and deduplicated across strategies.

Quick start::

    from repro.campaign import ResultStore
    from repro.dse import run_dse, space_preset

    result = run_dse(
        space_preset("malec-mini"),
        strategy="halving",
        budget=12,
        store=ResultStore("results/dse"),
    )
    for candidate in result.frontier:
        print(candidate.name, candidate.objectives)
"""

from repro.dse.engine import DseResult, Evaluator, extract_frontier, run_dse
from repro.dse.objectives import (
    DEFAULT_OBJECTIVES,
    OBJECTIVE_NAMES,
    OBJECTIVES,
    Objective,
    resolve_objectives,
)
from repro.dse.pareto import (
    ParetoPoint,
    dominance_ranks,
    dominates,
    frontier_and_ranks,
    pareto_frontier,
)
from repro.dse.space import (
    SPACE_PRESET_NAMES,
    SPACE_PRESETS,
    Candidate,
    Dimension,
    SearchSpace,
    choice,
    format_value,
    int_range,
    space_preset,
)
from repro.dse.strategies import (
    STRATEGIES,
    STRATEGY_NAMES,
    EvaluatedCandidate,
    GridSearch,
    RandomSearch,
    SearchStrategy,
    SuccessiveHalving,
    strategy_by_name,
)

__all__ = [
    "Candidate",
    "DEFAULT_OBJECTIVES",
    "Dimension",
    "DseResult",
    "EvaluatedCandidate",
    "Evaluator",
    "GridSearch",
    "OBJECTIVES",
    "OBJECTIVE_NAMES",
    "Objective",
    "ParetoPoint",
    "RandomSearch",
    "SPACE_PRESETS",
    "SPACE_PRESET_NAMES",
    "STRATEGIES",
    "STRATEGY_NAMES",
    "SearchSpace",
    "SearchStrategy",
    "SuccessiveHalving",
    "choice",
    "dominance_ranks",
    "dominates",
    "extract_frontier",
    "format_value",
    "frontier_and_ranks",
    "int_range",
    "pareto_frontier",
    "resolve_objectives",
    "run_dse",
    "space_preset",
    "strategy_by_name",
]
