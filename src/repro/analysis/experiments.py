"""Experiment runner: sweep configurations over benchmark suites.

:class:`ExperimentRunner` is the harness behind the Fig. 4 benchmarks and
examples: it generates (and caches) the synthetic trace of each benchmark,
runs every requested configuration over it and exposes the normalized
execution-time and energy views the paper plots, including the per-suite
geometric means.  Execution itself is delegated to the campaign subsystem
(:mod:`repro.campaign`), so the runner, the ``sweep`` CLI and the tests all
share one engine — including process-pool parallelism (``jobs``) and
store-backed resume (``store``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.reporting import geometric_mean
from repro.sim.config import SimulationConfig
from repro.sim.simulator import SimulationResult
from repro.workloads.columnar import ColumnarTrace
from repro.workloads.ingest import window
from repro.workloads.registry import registered_handle, registered_trace
from repro.workloads.suites import ALL_BENCHMARKS, ALL_SUITES, benchmark_profile
from repro.workloads.synthetic import generate_trace


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
        """The :class:`BenchmarkRun` of ``benchmark``.

        Lookups are backed by a name->run index so repeated queries over a
        large sweep avoid rescanning, while ``runs`` remains a plain list.
        The index is invalidated by object identity of the list elements,
        so appends, removals and in-place replacements are all detected;
        duplicate benchmark names resolve to the first occurrence, matching
        the original linear scan.
        """
        cached = getattr(self, "_run_index", None)
        token = tuple(map(id, self.runs))
        if cached is None or cached[0] != token:
            # Reversed iteration: earlier occurrences overwrite later ones,
            # preserving first-match semantics for duplicate names.
            index = {run.benchmark: run for run in reversed(self.runs)}
            self._run_index = cached = (token, index)
        return cached[1][benchmark]

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

    def mean_stat(self, config: str, extractor) -> float:
        """Arithmetic mean of ``extractor(result)`` over all benchmarks."""
        values = [extractor(run.results[config]) for run in self.runs]
        return sum(values) / len(values) if values else 0.0


class ExperimentRunner:
    """Runs configuration sweeps over (subsets of) the benchmark suites.

    ``warmup_fraction`` of every trace is executed once per configuration to
    warm the caches, TLBs and way tables before measurement starts (the paper
    measures warmed-up Simpoint phases, so cold-start effects would otherwise
    dominate the short synthetic traces).
    """

    def __init__(
        self,
        instructions: int = 12_000,
        benchmarks: Optional[Sequence[str]] = None,
        warmup_fraction: float = 0.25,
    ) -> None:
        if instructions <= 0:
            raise ValueError("traces need at least one instruction")
        self.instructions = instructions
        self.benchmarks = list(benchmarks) if benchmarks is not None else list(ALL_BENCHMARKS)
        self.warmup_fraction = warmup_fraction
        # Keyed (benchmark, instructions, trace seed, trace hash) — the
        # campaign executor's cache shape, shared with it by run() so traces
        # resolved here and there are never produced twice.
        self._trace_cache: Dict[Tuple[str, int, int, str], ColumnarTrace] = {}

    # ------------------------------------------------------------------
    def trace_for(self, benchmark: str) -> ColumnarTrace:
        """The (cached) trace of ``benchmark`` — synthetic or ingested.

        Registered ingested traces are truncated to the runner's instruction
        budget when longer, matching what the campaign executor simulates.
        """
        ingested = registered_trace(benchmark)
        if ingested is not None:
            fingerprint = registered_handle(benchmark).fingerprint
            key = (benchmark, self.instructions, 0, fingerprint)
            if key not in self._trace_cache:
                self._trace_cache[key] = (
                    ingested
                    if len(ingested) <= self.instructions
                    else window(ingested, 0, self.instructions)
                )
            return self._trace_cache[key]
        profile = benchmark_profile(benchmark)
        key = (benchmark, self.instructions, profile.seed, "")
        if key not in self._trace_cache:
            self._trace_cache[key] = generate_trace(profile, self.instructions)
        return self._trace_cache[key]

    def run(
        self,
        configurations: Sequence[SimulationConfig],
        jobs: Optional[int] = None,
        store=None,
        progress=None,
    ) -> ExperimentResults:
        """Run every configuration over every selected benchmark.

        ``jobs`` fans the sweep out over that many worker processes (the
        default uses one worker per CPU core);
        ``store`` (a :class:`~repro.campaign.store.ResultStore` or a store
        URL such as ``json:results/dir`` or ``sqlite:results.db``) persists
        every cell and lets a repeated run resume instead of recompute;
        ``progress`` is forwarded to the executor (see
        :class:`~repro.campaign.executor.ParallelExecutor`).
        """
        # Imported here: repro.campaign builds on this module's result types.
        from repro.campaign.executor import ParallelExecutor
        from repro.campaign.spec import CampaignSpec

        spec = CampaignSpec(
            name="experiment",
            configurations=tuple(configurations),
            benchmarks=tuple(self.benchmarks),
            instructions=self.instructions,
            warmup_fraction=self.warmup_fraction,
        )
        executor = ParallelExecutor(
            jobs=jobs, store=store, progress=progress, trace_cache=self._trace_cache
        )
        return executor.run(spec)
