"""Integration tests: configuration, simulator, sweep results, reporting,
and coarse checks of the paper's headline claims on small traces."""

from dataclasses import replace

import pytest

from repro.analysis.reporting import format_table, geometric_mean, normalize
from repro.campaign.executor import ParallelExecutor, cell_trace
from repro.campaign.spec import CampaignSpec
from repro.sim.config import (
    CacheParameters,
    InterfaceKind,
    MalecParameters,
    SimulationConfig,
    TLBParameters,
)
from repro.sim.simulator import Simulator, run_configuration
from repro.workloads.suites import benchmark_profile
from repro.workloads.synthetic import generate_trace


class TestReportingHelpers:
    def test_geometric_mean(self):
        assert geometric_mean([2, 8]) == pytest.approx(4.0)
        assert geometric_mean([]) == 0.0
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])

    def test_normalize(self):
        values = {"a": 2.0, "b": 4.0}
        assert normalize(values, "a") == {"a": 1.0, "b": 2.0}
        with pytest.raises(ValueError):
            normalize({"a": 0.0}, "a")

    def test_format_table(self):
        text = format_table(["name", "value"], [["x", 1.23456], ["y", 2]])
        assert "name" in text and "x" in text and "1.235" in text
        assert len(text.splitlines()) == 4


class TestSimulationConfig:
    def test_factories_and_names(self):
        assert SimulationConfig.base_1ldst().name == "Base1ldst"
        assert SimulationConfig.base_2ld1st().name == "Base2ld1st"
        assert SimulationConfig.malec().name == "MALEC"
        assert SimulationConfig.malec(l1_hit_latency=3).name == "MALEC_3cycleL1"
        assert SimulationConfig.base_2ld1st(l1_hit_latency=1).name == "Base2ld1st_1cycleL1"

    def test_figure4_suite_has_five_configurations(self):
        names = [config.name for config in SimulationConfig.figure4_suite()]
        assert len(names) == 5 and len(set(names)) == 5
        assert "Base1ldst" in names and "MALEC" in names

    def test_table1_ports(self):
        """Table I: port counts of the three interfaces."""
        base1 = SimulationConfig.base_1ldst()
        base2 = SimulationConfig.base_2ld1st()
        malec = SimulationConfig.malec()
        assert base1.l1_read_ports == 1 and base1.tlb_ports == 1
        assert base2.l1_read_ports == 2 and base2.tlb_ports == 3
        assert malec.l1_read_ports == 1 and malec.tlb_ports == 1
        assert base2.table1_row()["addr_comp_per_cycle"] == "2 ld + 1 st"
        assert malec.table1_row()["addr_comp_per_cycle"] == "1 ld + 2 ld/st"

    def test_every_model_field_reaches_the_model(self):
        """Each model-facing field, off its default, is read back where the
        model uses it (the pipeline widths are read by each run's pipeline,
        which the simulator does not keep)."""
        malec = MalecParameters(
            way_determination="wdu",
            wdu_entries=24,
            enable_feedback_update=False,
            merge_granularity="line",
            result_buses=3,
            input_buffer_capacity=3,
            merge_window=2,
            restrict_way_allocation=False,
        )
        config = SimulationConfig(
            name="off-defaults",
            interface=InterfaceKind.MALEC,
            cache=CacheParameters(l1_hit_latency=3, l2_latency=9, dram_latency=41),
            tlb=TLBParameters(utlb_entries=8, tlb_entries=32, walk_latency=17),
            malec_options=malec,
            lq_entries=20,
            sb_entries=12,
            mb_entries=6,
            include_buffer_energy=True,
            seed=5,
        )
        sim = Simulator(config)
        assert sim.l1.hit_latency == 3
        assert sim.l1.l2.latency_cycles == 9
        assert sim.l1.l2.dram.latency_cycles == 41
        translation = sim.translation
        assert (translation.utlb.entries, translation.tlb.entries) == (8, 32)
        assert translation.walk_latency == 17
        assert translation.page_table.seed == 5
        interface = sim.interface
        assert interface.l1 is sim.l1 and interface.translation is translation
        assert interface.load_queue.entries == 20
        assert interface.store_buffer.entries == 12
        assert interface.merge_buffer.entries == 6
        assert interface.way_determination == "wdu" and interface.way_tables is None
        assert interface.wdu.entries == 24
        assert interface.arbitration.merge_granularity == "line"
        assert interface.arbitration.result_buses == 3
        assert interface.arbitration.merge_window == 2
        assert interface.input_buffer.held_capacity == 3
        specs = sim.accountant.specs
        assert (specs["wdu"].rows, specs["wdu"].ports) == (24, 3)
        assert (specs["sb"].rows, specs["mb"].rows) == (12, 6)
        assert (specs["utlb.vtag"].rows, specs["tlb.vtag"].rows) == (8, 32)
        assert "uwt" not in specs and "wt" not in specs
        # The two options only MALEC's way tables read.
        wt = Simulator(replace(config, malec_options=replace(malec, way_determination="wt")))
        assert wt.interface.way_tables.enable_feedback_update is False
        assert not any(bank.restrict_way_allocation for bank in wt.l1.banks)
        assert (wt.accountant.specs["uwt"].rows, wt.accountant.specs["wt"].rows) == (8, 32)
        assert "wdu" not in wt.accountant.specs
        # Base2ld1st's extra ports (Table I): 2 on the L1 arrays, 3 on the TLBs.
        base = Simulator(SimulationConfig.base_2ld1st()).accountant.specs
        assert base["l1.tag"].ports == base["l1.data"].ports == 2
        assert base["utlb.vtag"].ports == base["tlb.vtag"].ports == 3

    def test_with_name(self):
        config = SimulationConfig.malec().with_name("MALEC-ablation")
        assert config.name == "MALEC-ablation"
        assert config.interface is InterfaceKind.MALEC


class TestSimulator:
    @pytest.fixture(scope="class")
    def trace(self):
        return generate_trace(benchmark_profile("gzip"), instructions=1500)

    def test_result_fields(self, trace):
        result = run_configuration(SimulationConfig.base_1ldst(), trace)
        assert result.cycles > 0
        assert result.instructions == len(trace)
        assert result.loads > 0 and result.stores > 0
        assert 0 < result.ipc <= 6
        assert result.energy.total_pj > 0
        assert 0 <= result.l1_load_miss_rate <= 1

    def test_all_interfaces_run_the_same_trace(self, trace):
        for config in SimulationConfig.figure4_suite():
            result = run_configuration(config, trace)
            assert result.instructions == len(trace)

    def test_determinism(self, trace):
        a = run_configuration(SimulationConfig.malec(), trace)
        b = run_configuration(SimulationConfig.malec(), trace)
        assert a.cycles == b.cycles
        assert a.energy.total_pj == pytest.approx(b.energy.total_pj)

    def test_warmup_reduces_measured_instructions(self, trace):
        full = run_configuration(SimulationConfig.base_1ldst(), trace)
        warmed = run_configuration(SimulationConfig.base_1ldst(), trace, warmup_fraction=0.5)
        assert warmed.instructions < full.instructions
        assert warmed.cycles < full.cycles

    def test_every_run_starts_from_clean_counters(self):
        # Two runs of one simulator without warm-up: the second counts only
        # its own instructions and loads, and prices its energy from them
        # (the warm second pass misses less, so it costs less).
        trace = generate_trace(benchmark_profile("gzip"), instructions=600)
        simulator = Simulator(SimulationConfig.malec())
        first = simulator.run(trace)
        second = simulator.run(trace)
        for result in (first, second):
            assert result.stats["pipeline.dispatched"] == len(trace)
            assert result.stats["interface.loads_submitted"] == result.loads
        assert second.loads == first.loads
        assert second.energy.dynamic_pj < first.energy.dynamic_pj

    def test_invalid_warmup_rejected(self, trace):
        with pytest.raises(ValueError):
            run_configuration(SimulationConfig.base_1ldst(), trace, warmup_fraction=1.0)

    def test_malec_counts_way_lookups_and_merges(self, trace):
        result = run_configuration(SimulationConfig.malec(), trace)
        assert result.stats["malec.way_lookup"] > 0
        assert 0 <= result.way_coverage <= 1
        assert 0 <= result.merged_load_fraction < 1

    def test_baselines_never_use_way_determination(self, trace):
        result = run_configuration(SimulationConfig.base_2ld1st(), trace)
        assert result.way_coverage == 0.0
        assert result.stats.get("l1.reduced_access", 0) == 0


class TestPaperClaims:
    """Coarse trend checks of the headline results on a small, fast workload."""

    @pytest.fixture(scope="class")
    def results(self):
        trace = generate_trace(benchmark_profile("djpeg"), instructions=3000)
        out = {}
        for config in SimulationConfig.figure4_suite():
            out[config.name] = run_configuration(config, trace, warmup_fraction=0.3)
        return out

    def test_multi_access_interfaces_are_faster(self, results):
        base = results["Base1ldst"].cycles
        assert results["Base2ld1st"].cycles < base
        assert results["MALEC"].cycles < base

    def test_malec_close_to_base2ld1st_performance(self, results):
        """Sec. VI-B: MALEC performs within a few percent of Base2ld1st."""
        ratio = results["MALEC"].cycles / results["Base2ld1st"].cycles
        assert ratio < 1.08

    def test_shorter_l1_latency_helps_and_longer_hurts(self, results):
        assert results["Base2ld1st_1cycleL1"].cycles <= results["Base2ld1st"].cycles
        assert results["MALEC_3cycleL1"].cycles >= results["MALEC"].cycles

    def test_base2ld1st_costs_more_energy_than_base1ldst(self, results):
        """Fig. 4b: the multi-ported interface pays in dynamic and leakage energy."""
        base = results["Base1ldst"].energy
        multi = results["Base2ld1st"].energy
        assert multi.dynamic_pj > 1.2 * base.dynamic_pj
        assert multi.total_pj > 1.2 * base.total_pj

    def test_malec_saves_energy_relative_to_both_baselines(self, results):
        base = results["Base1ldst"].energy.total_pj
        multi = results["Base2ld1st"].energy.total_pj
        malec = results["MALEC"].energy.total_pj
        assert malec < base < multi

    def test_malec_dynamic_energy_reduction(self, results):
        """Sec. VI-C: MALEC saves a large share of dynamic energy."""
        base = results["Base1ldst"].energy.dynamic_pj
        malec = results["MALEC"].energy.dynamic_pj
        assert malec < 0.85 * base

    def test_way_coverage_majority_of_accesses(self, results):
        assert results["MALEC"].way_coverage > 0.5

    def test_l2_traffic_roughly_unchanged(self, results):
        """Sec. VI-A: MALEC does not significantly change L2 access counts."""
        base = results["Base1ldst"].stats.get("l2.access", 0)
        malec = results["MALEC"].stats.get("l2.access", 0)
        assert base > 0
        assert abs(malec - base) / base < 0.35


def two_benchmark_spec(**overrides) -> CampaignSpec:
    defaults = dict(
        name="two",
        configurations=(SimulationConfig.base_1ldst(), SimulationConfig.malec()),
        benchmarks=("gzip", "djpeg"),
        instructions=1200,
        warmup_fraction=0.2,
    )
    defaults.update(overrides)
    return CampaignSpec(**defaults)


class TestSweepResults:
    def test_sweep_over_two_benchmarks(self):
        results = ParallelExecutor(jobs=1).run(two_benchmark_spec())
        assert results.configurations == ["Base1ldst", "MALEC"]
        assert len(results.runs) == 2
        run = results.run_for("gzip")
        assert set(run.results) == {"Base1ldst", "MALEC"}
        normalized = run.normalized_cycles("Base1ldst")
        assert normalized["Base1ldst"] == pytest.approx(1.0)
        geomeans = results.geomean_normalized_cycles("Base1ldst")
        assert geomeans["Base1ldst"] == pytest.approx(1.0)
        energy = results.geomean_normalized_energy("Base1ldst")
        assert energy["MALEC"] > 0
        assert results.suites() == ["SPEC-INT", "MB2"]
        with pytest.raises(KeyError):
            results.run_for("missing")

    def test_cell_trace_is_cached(self):
        cell = two_benchmark_spec(instructions=500).cells()[0]
        assert cell_trace(cell) is cell_trace(cell)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            two_benchmark_spec(instructions=0)
