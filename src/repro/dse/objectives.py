"""Objective functions mapping simulation results onto the trade-off plane.

Every objective is *minimized* and computed as the geometric mean, over the
space's benchmarks, of a per-benchmark ratio against the space's fixed
baseline configuration (``Base1ldst`` by default — the paper's Fig. 4
normalization).  The baseline is held constant across candidates, so the
normalization rescales axes without ever changing dominance relations.

Built-ins:

``runtime``
    Normalized execution time (Fig. 4a's y-axis).
``energy``
    Normalized L1-subsystem energy — L1 arrays plus uTLB/TLB and the
    way-determination and buffer structures, i.e. the full
    :class:`~repro.energy.accounting.EnergyReport` total (Fig. 4b).
``edp``
    Energy-delay product: the per-benchmark product of the two ratios
    (the single-number summary of the paper's trade-off claim).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Sequence, Tuple

from repro.analysis.experiments import ExperimentResults
from repro.analysis.reporting import geometric_mean
from repro.sim.simulator import SimulationResult

#: per-benchmark ratio: (candidate result, baseline result) -> float
RatioFunction = Callable[[SimulationResult, SimulationResult], float]


@dataclass(frozen=True)
class Objective:
    """One minimized axis of the design-space search."""

    key: str
    label: str
    ratio: RatioFunction

    def evaluate(
        self,
        candidate: Mapping[str, SimulationResult],
        baseline: Mapping[str, SimulationResult],
    ) -> float:
        """Geomean of the per-benchmark ratio over the common benchmarks.

        ``candidate`` and ``baseline`` map benchmark name to result; both
        must cover the same benchmarks (the engine always evaluates the
        baseline alongside every batch, so this holds by construction).
        """
        missing = set(candidate) ^ set(baseline)
        if missing:
            raise ValueError(f"candidate/baseline benchmark mismatch: {sorted(missing)}")
        return geometric_mean(
            self.ratio(candidate[name], baseline[name]) for name in sorted(candidate)
        )


def objective_values(
    results: ExperimentResults,
    names: Sequence[str],
    baseline: str,
    objectives: Sequence[Objective],
) -> List[Tuple[float, ...]]:
    """The objective values of each configuration in ``names`` over the
    benchmarks of ``results``, against configuration ``baseline``'s results
    on the same benchmarks (the DSE engine's candidates, a served sweep's
    frontier points)."""
    base = {run.benchmark: run.results[baseline] for run in results.runs}
    values = []
    for name in names:
        candidate = {run.benchmark: run.results[name] for run in results.runs}
        values.append(tuple(objective.evaluate(candidate, base) for objective in objectives))
    return values


def _runtime_ratio(result: SimulationResult, base: SimulationResult) -> float:
    return result.normalized_time(base)


def _energy_ratio(result: SimulationResult, base: SimulationResult) -> float:
    return result.normalized_energy(base)["total"]


def _edp_ratio(result: SimulationResult, base: SimulationResult) -> float:
    return _runtime_ratio(result, base) * _energy_ratio(result, base)


OBJECTIVES: Dict[str, Objective] = {
    "runtime": Objective("runtime", "norm. time", _runtime_ratio),
    "energy": Objective("energy", "norm. energy", _energy_ratio),
    "edp": Objective("edp", "norm. EDP", _edp_ratio),
}

#: objective keys in presentation order (shown in ``repro dse`` CLI help)
OBJECTIVE_NAMES: Tuple[str, ...] = tuple(OBJECTIVES)

#: the energy/performance plane of the paper's headline claim
DEFAULT_OBJECTIVES: Tuple[str, ...] = ("runtime", "energy")


def resolve_objectives(keys: Sequence[str]) -> Tuple[Objective, ...]:
    """Look up objectives by key, preserving order and rejecting duplicates."""
    if not keys:
        raise ValueError("at least one objective is required")
    if len(set(keys)) != len(keys):
        raise ValueError(f"duplicate objectives: {list(keys)}")
    resolved = []
    for key in keys:
        try:
            resolved.append(OBJECTIVES[key])
        except KeyError:
            raise ValueError(
                f"unknown objective {key!r}; choose from {', '.join(OBJECTIVE_NAMES)}"
            ) from None
    return tuple(resolved)
