"""Cycle and energy attribution: "where did the time/energy go" for one run.

Assembles the answer from three existing sources — the per-cycle categories
a :class:`~repro.obs.collector.RunCollector` gathered, the
:class:`~repro.stats.StatCounters` snapshot every
:class:`~repro.sim.simulator.SimulationResult` already carries, and the
per-structure :class:`~repro.energy.accounting.EnergyReport` — and renders
them with the same aligned-table helpers the rest of the analysis layer
uses.  ``repro report`` prints these; nothing here feeds back into results.

The cycle categories partition the run (each simulated or skipped cycle is
counted exactly once), so the breakdown's rows **sum to the total cycle
count** — the invariant the obs test suite and the CI obs-smoke job assert.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.reporting import format_table
from repro.obs.collector import CYCLE_CATEGORIES, RunCollector
from repro.sim.simulator import SimulationResult

__all__ = ["RunAttribution", "attribute_run", "format_attribution"]

#: human-readable blurb per cycle category (report footnotes)
_CATEGORY_NOTES: Dict[str, str] = {
    "commit": "instructions retired",
    "issue": "issued, nothing retired",
    "frontend": "fetch/dispatch only",
    "memory_wait": "waiting on L1/L2/DRAM",
    "buffer_stall": "slots or buffers full",
    "idle_wait": "simulated idle cycle",
    "fast_forwarded": "idle stretch skipped",
}


@dataclass
class RunAttribution:
    """Cycle and energy breakdown of one (configuration, trace) run."""

    benchmark: str
    config_name: str
    total_cycles: int
    instructions: int
    #: category -> cycles, every category of CYCLE_CATEGORIES present
    cycles: Dict[str, int] = field(default_factory=dict)
    #: structure -> (dynamic_pj, leakage_pj)
    energy: Dict[str, Tuple[float, float]] = field(default_factory=dict)
    #: completions the run retired, duplicates included (0 if uncollected)
    events_dispatched: int = 0
    #: derived rates lifted off the stat counters (ipc, miss rates, ...)
    rates: Dict[str, float] = field(default_factory=dict)

    @property
    def attributed_cycles(self) -> int:
        """Sum of every category — must equal ``total_cycles``."""
        return sum(self.cycles.values())

    def check(self) -> None:
        """Raise ``ValueError`` unless the categories partition the run."""
        if self.attributed_cycles != self.total_cycles:
            raise ValueError(
                f"{self.benchmark}/{self.config_name}: attributed "
                f"{self.attributed_cycles} cycles != total {self.total_cycles}"
            )

    def as_dict(self) -> dict:
        """JSON-able form (the obs-smoke CI job validates this shape)."""
        return {
            "benchmark": self.benchmark,
            "config": self.config_name,
            "total_cycles": self.total_cycles,
            "instructions": self.instructions,
            "cycles": dict(self.cycles),
            "energy_pj": {
                name: {"dynamic": dyn, "leakage": leak}
                for name, (dyn, leak) in self.energy.items()
            },
            "events_dispatched": self.events_dispatched,
            "rates": dict(self.rates),
        }


def attribute_run(
    benchmark: str,
    result: SimulationResult,
    collector: Optional[RunCollector] = None,
) -> RunAttribution:
    """Build the attribution of one finished run.

    With a ``collector`` (a run observed through the event-driven loop) the
    cycle rows are the collector's categories.  Without one — e.g. when
    attributing a stored result after the fact — the only honest partition
    available from the result's counters is total cycles, reported as one
    ``unattributed`` row; energy and rate rows are always available.
    """
    attribution = RunAttribution(
        benchmark=benchmark,
        config_name=result.config_name,
        total_cycles=result.cycles,
        instructions=result.instructions,
    )
    if collector is not None:
        attribution.cycles = dict(collector.cycle_categories)
        attribution.events_dispatched = collector.events_dispatched
    else:
        attribution.cycles = {name: 0 for name in CYCLE_CATEGORIES}
        attribution.cycles["unattributed"] = result.cycles
    for name, structure in sorted(result.energy.structures.items()):
        attribution.energy[name] = (structure.dynamic_pj, structure.leakage_pj)
    attribution.rates = {
        "ipc": result.ipc,
        "l1_load_miss_rate": result.l1_load_miss_rate,
        "way_coverage": result.way_coverage,
        "merged_load_fraction": result.merged_load_fraction,
        "leakage_share": result.energy.leakage_share,
    }
    return attribution


def format_attribution(attribution: RunAttribution) -> str:
    """Aligned text rendering of one run's cycle and energy breakdown."""
    lines = [
        f"{attribution.benchmark} / {attribution.config_name}: "
        f"{attribution.total_cycles} cycles, "
        f"{attribution.instructions} instructions "
        f"(ipc {attribution.rates.get('ipc', 0.0):.3f})"
    ]
    total = attribution.total_cycles
    rows: List[List[object]] = []
    for name, count in attribution.cycles.items():
        share = count / total if total else 0.0
        rows.append([name, count, share, _CATEGORY_NOTES.get(name, "")])
    rows.append(["TOTAL", attribution.attributed_cycles, 1.0 if total else 0.0, ""])
    lines.append(format_table(["cycles go to", "cycles", "share", ""], rows))
    if attribution.energy:
        energy_rows: List[List[object]] = []
        total_dyn = sum(dyn for dyn, _ in attribution.energy.values())
        total_leak = sum(leak for _, leak in attribution.energy.values())
        for name, (dyn, leak) in attribution.energy.items():
            energy_rows.append([name, dyn, leak, dyn + leak])
        energy_rows.append(["TOTAL", total_dyn, total_leak, total_dyn + total_leak])
        lines.append("")
        lines.append(
            format_table(
                ["energy goes to", "dynamic [pJ]", "leakage [pJ]", "total [pJ]"],
                energy_rows,
                float_format="{:.1f}",
            )
        )
    if attribution.events_dispatched:
        lines.append("")
        lines.append(
            f"completions: {attribution.events_dispatched} retired "
            f"({attribution.events_dispatched / total:.3f}/cycle)"
            if total
            else f"completions: {attribution.events_dispatched} retired"
        )
    return "\n".join(lines)
