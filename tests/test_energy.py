"""Tests for the CACTI-like energy model and the energy accounting."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.energy.accounting import EnergyAccountant, EnergyReport, StructureEnergy
from repro.energy.cacti import CactiParameters, SRAMArraySpec, SRAMEnergyModel
from repro.energy.energy_model import EnergyModelConfig, InterfaceEnergyModel
from repro.stats import StatCounters


def spec(rows=32, row_bits=512, output_bits=256, ports=1, is_cam=False, search_bits=0):
    return SRAMArraySpec(
        name="test",
        rows=rows,
        row_bits=row_bits,
        output_bits=output_bits,
        ports=ports,
        is_cam=is_cam,
        search_bits=search_bits,
    )


class TestSRAMEnergyModel:
    def test_energies_are_positive(self):
        model = SRAMEnergyModel()
        s = spec()
        assert model.read_energy_pj(s) > 0
        assert model.write_energy_pj(s) > 0
        assert model.leakage_mw(s) > 0

    def test_bigger_array_costs_more(self):
        model = SRAMEnergyModel()
        small, large = spec(rows=16), spec(rows=256)
        assert model.read_energy_pj(large) > model.read_energy_pj(small)
        assert model.leakage_mw(large) > model.leakage_mw(small)

    def test_more_ports_cost_more(self):
        model = SRAMEnergyModel()
        single, dual = spec(ports=1), spec(ports=2)
        assert model.read_energy_pj(dual) > model.read_energy_pj(single)
        assert model.leakage_mw(dual) > model.leakage_mw(single)

    def test_extra_port_leakage_factor_is_80_percent(self):
        """One additional port raises leakage by 80 % (Sec. VI-C)."""
        model = SRAMEnergyModel()
        single, dual = spec(ports=1), spec(ports=2)
        assert model.leakage_mw(dual) / model.leakage_mw(single) == pytest.approx(1.8)

    def test_cam_search_costs_more_than_ram_read(self):
        model = SRAMEnergyModel()
        ram = spec(rows=64, row_bits=20, output_bits=20)
        cam = spec(rows=64, row_bits=20, output_bits=20, is_cam=True, search_bits=20)
        assert model.read_energy_pj(cam) > model.read_energy_pj(ram)

    def test_leakage_energy_scales_with_cycles(self):
        """Leakage energy is an array's leakage power times cycles (1 mW over
        a 1 ns cycle is 1 pJ); the accountant's report is where it is formed."""
        model = InterfaceEnergyModel(EnergyModelConfig())
        accountant = EnergyAccountant(model)
        power = model.sram.leakage_mw(model.specs["utlb.vtag"])
        for cycles in (0, 1000, 2000):
            report = accountant.report(StatCounters(), cycles)
            assert report.structures["utlb.vtag"].leakage_pj == power * cycles

    def test_negative_cycles_rejected(self):
        accountant = EnergyAccountant(InterfaceEnergyModel(EnergyModelConfig()))
        with pytest.raises(ValueError):
            accountant.report(StatCounters(), -1)

    def test_port_scale_validation(self):
        params = CactiParameters()
        with pytest.raises(ValueError):
            params.dynamic_port_scale(0)
        with pytest.raises(ValueError):
            params.leakage_port_scale(0)

    @given(st.integers(min_value=1, max_value=4096), st.integers(min_value=1, max_value=4))
    @settings(max_examples=60)
    def test_monotone_in_rows_and_ports(self, rows, ports):
        model = SRAMEnergyModel()
        base = model.read_energy_pj(spec(rows=rows, ports=ports))
        assert model.read_energy_pj(spec(rows=rows + 1, ports=ports)) >= base
        assert model.read_energy_pj(spec(rows=rows, ports=ports + 1)) > base


class TestInterfaceEnergyModel:
    def test_baseline_has_no_way_tables(self):
        model = InterfaceEnergyModel(EnergyModelConfig())
        assert "uwt" not in model.specs and "wt" not in model.specs
        assert "l1.tag" in model.specs and "tlb.vtag" in model.specs

    def test_malec_model_has_way_tables(self):
        model = InterfaceEnergyModel(EnergyModelConfig(has_way_tables=True))
        assert model.specs["uwt"].rows == 16
        assert model.specs["wt"].rows == 64
        assert model.specs["uwt"].row_bits == 128

    def test_wdu_model(self):
        model = InterfaceEnergyModel(EnergyModelConfig(wdu_entries=16, wdu_ports=4))
        assert model.specs["wdu"].rows == 16
        assert model.specs["wdu"].ports == 4

    def test_port_counts_propagate(self):
        model = InterfaceEnergyModel(EnergyModelConfig(l1_ports=2, tlb_ports=3))
        assert model.specs["l1.data"].ports == 2
        assert model.specs["tlb.vtag"].ports == 3

    def test_dynamic_energy_from_events(self):
        model = InterfaceEnergyModel(EnergyModelConfig())
        stats = StatCounters()
        stats.add("l1.tag_read", 4)
        stats.add("l1.data_read", 4)
        stats.add("utlb.lookup", 1)
        totals = model.dynamic_energy_pj(stats)
        assert totals["l1.tag"] > 0 and totals["l1.data"] > 0 and totals["utlb.vtag"] > 0
        assert totals["l1.data"] > totals["l1.tag"]

    def test_control_energy_charged_per_access(self):
        model = InterfaceEnergyModel(EnergyModelConfig())
        stats = StatCounters()
        stats.add("l1.ctrl", 10)
        totals = model.dynamic_energy_pj(stats)
        assert totals["l1.control"] == pytest.approx(
            10 * model.sram.parameters.l1_control_energy_pj
        )

    def test_unknown_events_are_ignored(self):
        model = InterfaceEnergyModel(EnergyModelConfig())
        stats = StatCounters()
        stats.add("nonsense.event", 100)
        totals = model.dynamic_energy_pj(stats)
        assert sum(totals.values()) == 0

    def test_leakage_includes_all_l1_arrays(self):
        model = InterfaceEnergyModel(EnergyModelConfig())
        leakage = model.leakage_power_mw()
        single_array = model.sram.leakage_mw(model.specs["l1.data"])
        assert leakage["l1.data"] == pytest.approx(16 * single_array)

    def test_buffers_optional(self):
        without = InterfaceEnergyModel(EnergyModelConfig(include_buffers=False))
        with_buffers = InterfaceEnergyModel(EnergyModelConfig(include_buffers=True))
        assert "sb" not in without.specs
        assert "sb" in with_buffers.specs and "mb" in with_buffers.specs

    def test_access_energy_kind_validation(self):
        model = InterfaceEnergyModel(EnergyModelConfig())
        with pytest.raises(ValueError):
            model.access_energy_pj("l1.tag", "erase")


class TestEnergyAccounting:
    def _report(self, cycles=1000):
        model = InterfaceEnergyModel(EnergyModelConfig(has_way_tables=True))
        accountant = EnergyAccountant(model)
        stats = StatCounters()
        stats.add("l1.tag_read", 400)
        stats.add("l1.data_read", 400)
        stats.add("l1.ctrl", 100)
        stats.add("utlb.lookup", 100)
        stats.add("uwt.read", 100)
        return accountant.report(stats, cycles)

    def test_report_totals_are_consistent(self):
        report = self._report()
        assert report.total_pj == pytest.approx(report.dynamic_pj + report.leakage_pj)
        assert 0 < report.leakage_share < 1

    def test_leakage_scales_with_cycles(self):
        short = self._report(cycles=1000)
        long = self._report(cycles=2000)
        assert long.leakage_pj == pytest.approx(2 * short.leakage_pj)
        assert long.dynamic_pj == pytest.approx(short.dynamic_pj)

    def test_normalization(self):
        a = self._report(cycles=1000)
        b = self._report(cycles=2000)
        normalized = b.normalized_to(a)
        assert normalized["total"] > 1.0
        assert normalized["dynamic"] == pytest.approx(a.dynamic_pj / a.total_pj)

    def test_normalize_to_zero_baseline_rejected(self):
        empty = EnergyReport(cycles=0)
        with pytest.raises(ValueError):
            self._report().normalized_to(empty)

    def test_negative_cycles_rejected(self):
        model = InterfaceEnergyModel(EnergyModelConfig())
        with pytest.raises(ValueError):
            EnergyAccountant(model).report(StatCounters(), -5)

    def test_summary_lists_structures(self):
        text = self._report().summary()
        assert "l1.data" in text and "TOTAL" in text

    def test_structure_energy_total(self):
        item = StructureEnergy(dynamic_pj=2.0, leakage_pj=3.0)
        assert item.total_pj == 5.0
