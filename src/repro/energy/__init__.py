"""Energy modelling: a CACTI-like analytic SRAM model and event accounting.

The paper combines gem5 access statistics with CACTI 6.5 energy estimates
(32 nm, low-dynamic-power design objective, low-standby-power cells for the
arrays and high-performance peripherals).  CACTI itself is not available
offline, so :mod:`repro.energy.cacti` rebuilds a simplified analytic model:
per-access dynamic energy and leakage power are derived from array geometry
(rows, bits, output width) and scaled with the number of ports.  Absolute
joules differ from CACTI, but the *ratios* between structures — which is all
the normalized results of Fig. 4b depend on — follow the same size and port
scaling, including the paper's observation that one additional read port
raises L1 leakage by roughly 80 %.

:class:`~repro.energy.accounting.EnergyAccountant` is built from a
:class:`~repro.sim.config.SimulationConfig` alone: it knows which SRAM arrays
that configuration instantiates and how the event counters produced during
simulation map onto array accesses, and turns a
:class:`~repro.stats.StatCounters` snapshot plus a cycle count into a
structured :class:`~repro.energy.accounting.EnergyReport`.
"""

from repro.energy.cacti import CactiParameters, SRAMArraySpec, SRAMEnergyModel
from repro.energy.accounting import EnergyAccountant, EnergyReport, StructureEnergy

__all__ = [
    "CactiParameters",
    "SRAMArraySpec",
    "SRAMEnergyModel",
    "EnergyAccountant",
    "EnergyReport",
    "StructureEnergy",
]
