"""Sweep results: configurations x benchmarks, normalized as the paper plots.

:class:`ExperimentResults` holds one :class:`BenchmarkRun` per benchmark of a
sweep and exposes the normalized execution-time and energy views of Fig. 4,
including the per-suite geometric means.  Sweeps are run by the campaign
engine (:class:`~repro.campaign.executor.ParallelExecutor` over a
:class:`~repro.campaign.spec.CampaignSpec`), which returns these results and
rebuilds them from a store (:func:`~repro.campaign.aggregate.results_from_store`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.analysis.reporting import geometric_mean
from repro.sim.simulator import SimulationResult
from repro.workloads.suites import ALL_SUITES


@dataclass
class BenchmarkRun:
    """All configuration results for one benchmark."""

    benchmark: str
    suite: str
    results: Dict[str, SimulationResult] = field(default_factory=dict)

    def normalized_cycles(self, baseline: str) -> Dict[str, float]:
        """Execution time of every configuration relative to ``baseline``."""
        base = self.results[baseline].cycles
        return {name: result.cycles / base for name, result in self.results.items()}

    def normalized_energy(self, baseline: str) -> Dict[str, Dict[str, float]]:
        """Dynamic/leakage/total energy relative to ``baseline``'s total."""
        base = self.results[baseline]
        return {
            name: result.normalized_energy(base) for name, result in self.results.items()
        }


@dataclass
class ExperimentResults:
    """Results of a full sweep (benchmarks x configurations)."""

    runs: List[BenchmarkRun] = field(default_factory=list)
    configurations: List[str] = field(default_factory=list)

    # ------------------------------------------------------------------
    def run_for(self, benchmark: str) -> BenchmarkRun:
        """The first :class:`BenchmarkRun` of ``benchmark``; ``KeyError`` if none."""
        for run in self.runs:
            if run.benchmark == benchmark:
                return run
        raise KeyError(benchmark)

    def suites(self) -> List[str]:
        """Suites present in the sweep, in canonical order."""
        present = {run.suite for run in self.runs}
        return [suite for suite in ALL_SUITES if suite in present]

    # ------------------------------------------------------------------
    def geomean_normalized_cycles(
        self, baseline: str, suite: Optional[str] = None
    ) -> Dict[str, float]:
        """Per-configuration geometric mean of normalized execution time."""
        values: Dict[str, List[float]] = {name: [] for name in self.configurations}
        for run in self.runs:
            if suite is not None and run.suite != suite:
                continue
            normalized = run.normalized_cycles(baseline)
            for name in self.configurations:
                values[name].append(normalized[name])
        return {
            name: geometric_mean(series) if series else 0.0
            for name, series in values.items()
        }

    def geomean_normalized_energy(
        self, baseline: str, suite: Optional[str] = None, component: str = "total"
    ) -> Dict[str, float]:
        """Per-configuration geometric mean of normalized energy."""
        values: Dict[str, List[float]] = {name: [] for name in self.configurations}
        for run in self.runs:
            if suite is not None and run.suite != suite:
                continue
            normalized = run.normalized_energy(baseline)
            for name in self.configurations:
                values[name].append(normalized[name][component])
        return {
            name: geometric_mean(series) if series else 0.0
            for name, series in values.items()
        }
