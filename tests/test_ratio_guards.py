"""Zero-denominator behaviour of every derived-rate helper.

All ratio-style properties follow one convention — 0.0 when the denominator
never counted — so degenerate inputs (empty traces, configurations without
way determination, empty sweeps) flow through analyses without raising.
These tests pin the convention down for each helper individually.
"""

from __future__ import annotations

import pytest

from repro.analysis.experiments import BenchmarkRun, ExperimentResults
from repro.analysis.reporting import geometric_mean, normalize
from repro.campaign.aggregate import summarize_results
from repro.cpu.pipeline import PipelineResult
from repro.energy.accounting import EnergyReport, StructureEnergy
from repro.sim.simulator import SimulationResult, _guarded_ratio
from repro.stats import StatCounters


def empty_result(cycles: int = 0) -> SimulationResult:
    return SimulationResult(
        config_name="empty",
        cycles=cycles,
        instructions=0,
        loads=0,
        stores=0,
        energy=EnergyReport(cycles=cycles),
        stats={},
    )


class TestGuardedRatio:
    def test_normal_division(self):
        assert _guarded_ratio(3.0, 4.0) == 0.75

    def test_zero_denominator(self):
        assert _guarded_ratio(5.0, 0.0) == 0.0
        assert _guarded_ratio(0.0, 0.0) == 0.0


class TestSimulationResultRatios:
    def test_ipc_with_zero_cycles(self):
        assert empty_result().ipc == 0.0

    def test_l1_load_miss_rate_without_loads(self):
        assert empty_result(cycles=10).l1_load_miss_rate == 0.0

    def test_way_coverage_without_way_lookups(self):
        # Baseline configurations never touch malec.way_lookup.
        result = empty_result(cycles=10)
        result.stats = {"l1.load": 5.0}
        assert result.way_coverage == 0.0

    def test_merged_load_fraction_without_accesses(self):
        assert empty_result(cycles=10).merged_load_fraction == 0.0

    def test_ratios_still_compute_with_counts(self):
        result = empty_result(cycles=4)
        result.instructions = 8
        result.stats = {
            "l1.load": 10.0,
            "l1.load_miss": 2.0,
            "malec.way_lookup": 8.0,
            "malec.way_known": 6.0,
            "interface.load_accesses": 6.0,
            "interface.loads_merged": 2.0,
        }
        assert result.ipc == 2.0
        assert result.l1_load_miss_rate == pytest.approx(0.2)
        assert result.way_coverage == pytest.approx(0.75)
        assert result.merged_load_fraction == pytest.approx(0.25)

    def test_normalized_time_rejects_zero_baseline(self):
        with pytest.raises(ValueError):
            empty_result(cycles=5).normalized_time(empty_result(cycles=0))


class TestPipelineAndEnergyRatios:
    def test_pipeline_ipc_zero_cycles(self):
        result = PipelineResult(cycles=0, instructions=0, loads=0, stores=0, computes=0)
        assert result.ipc == 0.0

    def test_energy_leakage_share_zero_total(self):
        assert EnergyReport(cycles=0).leakage_share == 0.0

    def test_energy_normalized_to_zero_baseline_raises(self):
        report = EnergyReport(cycles=1, structures={"l1": StructureEnergy(1.0, 1.0)})
        with pytest.raises(ValueError):
            report.normalized_to(EnergyReport(cycles=1))

    def test_stats_ratio_zero_denominator(self):
        stats = StatCounters()
        stats.add("hits", 3)
        assert stats.ratio("hits", "never_counted") == 0.0


class TestAggregationEdgeCases:
    def test_geometric_mean_empty_is_zero(self):
        assert geometric_mean([]) == 0.0

    def test_geometric_mean_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])

    def test_normalize_rejects_zero_baseline(self):
        with pytest.raises(ValueError):
            normalize({"a": 0.0, "b": 1.0}, "a")

    def test_geomeans_over_empty_results(self):
        results = ExperimentResults(runs=[], configurations=["A", "B"])
        assert results.geomean_normalized_cycles("A") == {"A": 0.0, "B": 0.0}
        assert results.geomean_normalized_energy("A") == {"A": 0.0, "B": 0.0}

    def test_geomeans_over_unknown_suite(self):
        run = BenchmarkRun(benchmark="gzip", suite="spec2000int")
        run.results["A"] = empty_result(cycles=10)
        results = ExperimentResults(runs=[run], configurations=["A"])
        assert results.geomean_normalized_cycles("A", suite="nonexistent") == {"A": 0.0}

    def test_summarize_empty_store_results(self):
        results = ExperimentResults(runs=[], configurations=[])
        assert summarize_results(results) == "store is empty"
