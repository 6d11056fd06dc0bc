"""Energy accounting: turning counters + cycles into an energy report.

The :class:`EnergyAccountant` combines the dynamic per-structure energies
computed by an :class:`~repro.energy.energy_model.InterfaceEnergyModel` with
leakage energy accumulated over the simulated execution time, producing an
:class:`EnergyReport` that mirrors the breakdown of Fig. 4b (dynamic vs
leakage, per structure and total).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.energy.energy_model import InterfaceEnergyModel
from repro.stats import StatCounters


@dataclass
class StructureEnergy:
    """Energy of one structure, split into dynamic and leakage parts (pJ)."""

    dynamic_pj: float = 0.0
    leakage_pj: float = 0.0

    @property
    def total_pj(self) -> float:
        """Dynamic plus leakage energy."""
        return self.dynamic_pj + self.leakage_pj


@dataclass
class EnergyReport:
    """Complete energy breakdown of one simulation run."""

    cycles: int
    structures: Dict[str, StructureEnergy] = field(default_factory=dict)

    @property
    def dynamic_pj(self) -> float:
        """Total dynamic energy."""
        return sum(item.dynamic_pj for item in self.structures.values())

    @property
    def leakage_pj(self) -> float:
        """Total leakage energy."""
        return sum(item.leakage_pj for item in self.structures.values())

    @property
    def total_pj(self) -> float:
        """Total (dynamic + leakage) energy."""
        return self.dynamic_pj + self.leakage_pj

    @property
    def leakage_share(self) -> float:
        """Fraction of the total energy that is leakage."""
        total = self.total_pj
        return self.leakage_pj / total if total else 0.0

    def normalized_to(self, baseline: "EnergyReport") -> Dict[str, float]:
        """Dynamic/leakage/total relative to a baseline report (Fig. 4b style)."""
        reference = baseline.total_pj
        if reference == 0:
            raise ValueError("baseline report has zero energy")
        return {
            "dynamic": self.dynamic_pj / reference,
            "leakage": self.leakage_pj / reference,
            "total": self.total_pj / reference,
        }

    def summary(self) -> str:
        """Human-readable per-structure table."""
        lines = [f"{'structure':<12s} {'dynamic [pJ]':>16s} {'leakage [pJ]':>16s} {'total [pJ]':>16s}"]
        for name in sorted(self.structures):
            item = self.structures[name]
            lines.append(
                f"{name:<12s} {item.dynamic_pj:>16.1f} {item.leakage_pj:>16.1f} {item.total_pj:>16.1f}"
            )
        lines.append(
            f"{'TOTAL':<12s} {self.dynamic_pj:>16.1f} {self.leakage_pj:>16.1f} {self.total_pj:>16.1f}"
        )
        return "\n".join(lines)


class EnergyAccountant:
    """Computes :class:`EnergyReport` objects for one configuration."""

    def __init__(self, model: InterfaceEnergyModel) -> None:
        self.model = model

    def report(self, stats: StatCounters, cycles: int) -> EnergyReport:
        """Build the energy report for a finished simulation.

        Parameters
        ----------
        stats:
            Event counters accumulated during the run.
        cycles:
            Total execution time in cycles; leakage scales linearly with it
            (this is why the faster configurations recover part of their
            higher dynamic energy in Fig. 4b).  A cycle is 1 ns (Table II's
            1 GHz clock) and 1 mW over 1 ns is 1 pJ, so leakage energy is
            leakage power times cycles.
        """
        if cycles < 0:
            raise ValueError("cycle count cannot be negative")
        report = EnergyReport(cycles=cycles)
        dynamic = self.model.dynamic_energy_pj(stats)
        leakage_power = self.model.leakage_power_mw()
        for name in sorted(set(dynamic) | set(leakage_power)):
            report.structures[name] = StructureEnergy(
                dynamic_pj=dynamic.get(name, 0.0),
                leakage_pj=leakage_power.get(name, 0.0) * cycles,
            )
        return report
