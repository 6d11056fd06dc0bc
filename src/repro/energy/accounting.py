"""Energy accounting: one configuration's SRAM arrays and its energy report.

The paper's methodology (Sec. VI-A) combines access statistics from the
cycle-level simulation with per-access energies from CACTI for the following
structures: the L1 data cache (tag and data arrays plus control logic), the
uTLB+uWT and the TLB+WT.  To account for reverse (physical) lookups, each TLB
is treated as two fully-associative tag arrays — a virtual and a physical one
— in front of the shared WT data array.  The LQ, SB and MB are excluded (they
are near-identical across configurations), as are the lower memory levels.

:class:`EnergyAccountant` is built from a
:class:`~repro.sim.config.SimulationConfig` alone.  It owns the list of array
specifications of that configuration (ports differ between Base1ldst,
Base2ld1st and MALEC) together with the mapping from event-counter names
(produced by the hardware models) to (array, access-kind) pairs, and combines
the dynamic per-structure energies with leakage energy accumulated over the
simulated execution time into an :class:`EnergyReport` that mirrors the
breakdown of Fig. 4b (dynamic vs leakage, per structure and total).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.energy.cacti import SRAMArraySpec, SRAMEnergyModel
from repro.sim.config import InterfaceKind, SimulationConfig
from repro.stats import StatCounters

#: status bits per cache tag (valid + dirty)
_TAG_STATUS_BITS = 2

#: (structure name, access kind, scale) — kind is "read" or "write"
EventTarget = Tuple[str, str, float]


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
    """Array specs, event → access mapping and energy reports of one
    configuration.

    Everything is read from ``config``: the L1 and uTLB/TLB ports
    (:attr:`~repro.sim.config.SimulationConfig.l1_read_ports`,
    :attr:`~repro.sim.config.SimulationConfig.tlb_ports`), the uWT/WT of
    MALEC with way tables, the WDU (``wdu_entries`` rows, one lookup port per
    result bus) of MALEC with a WDU, the SB/MB arrays when
    ``include_buffer_energy`` asks for them, and the TLB and buffer sizes and
    address layout that size every array.
    """

    def __init__(self, config: SimulationConfig) -> None:
        self.config = config
        self.sram = SRAMEnergyModel()
        self.specs: Dict[str, SRAMArraySpec] = {}
        self.event_map: Dict[str, List[EventTarget]] = {}
        self._access_energy_cache: Dict = {}
        self._leakage_cache: Optional[Dict[str, float]] = None
        self._build_specs()
        self._build_event_map()

    # ------------------------------------------------------------------
    # Array construction
    # ------------------------------------------------------------------
    def _add_spec(self, spec: SRAMArraySpec) -> None:
        self.specs[spec.name] = spec

    def _build_specs(self) -> None:
        config = self.config
        layout = config.cache.layout
        tag_bits = layout.tag_bits + _TAG_STATUS_BITS
        line_bits = layout.line_bytes * 8
        subblock_pair_bits = 2 * layout.subblock_bytes * 8
        page_id_bits = layout.page_id_bits
        utlb_entries = config.tlb.utlb_entries
        tlb_entries = config.tlb.tlb_entries
        malec = config.malec_options
        way_determination = (
            malec.way_determination if config.interface is InterfaceKind.MALEC else None
        )

        # One way's tag array of one bank; the event counters already count
        # per-way, per-bank accesses so the spec granularity matches.
        self._add_spec(
            SRAMArraySpec(
                name="l1.tag",
                rows=layout.l1_sets_per_bank,
                row_bits=tag_bits,
                output_bits=tag_bits,
                ports=config.l1_read_ports,
            )
        )
        # One way's data array of one bank; reads drive out a sub-block pair.
        self._add_spec(
            SRAMArraySpec(
                name="l1.data",
                rows=layout.l1_sets_per_bank,
                row_bits=line_bits,
                output_bits=subblock_pair_bits,
                ports=config.l1_read_ports,
            )
        )
        # uTLB / TLB: virtual and physical CAM tag arrays + translation data.
        for name, entries in (("utlb", utlb_entries), ("tlb", tlb_entries)):
            self._add_spec(
                SRAMArraySpec(
                    name=f"{name}.vtag",
                    rows=entries,
                    row_bits=page_id_bits,
                    output_bits=page_id_bits,
                    ports=config.tlb_ports,
                    is_cam=True,
                    search_bits=page_id_bits,
                )
            )
            self._add_spec(
                SRAMArraySpec(
                    name=f"{name}.ptag",
                    rows=entries,
                    row_bits=page_id_bits,
                    output_bits=page_id_bits,
                    ports=1,
                    is_cam=True,
                    search_bits=page_id_bits,
                )
            )
        if way_determination == "wt":
            entry_bits = 2 * layout.lines_per_page
            self._add_spec(
                SRAMArraySpec(
                    name="uwt",
                    rows=utlb_entries,
                    row_bits=entry_bits,
                    output_bits=entry_bits,
                    ports=1,
                )
            )
            self._add_spec(
                SRAMArraySpec(
                    name="wt",
                    rows=tlb_entries,
                    row_bits=entry_bits,
                    output_bits=entry_bits,
                    ports=1,
                )
            )
        if way_determination == "wdu":
            line_tag_bits = layout.address_bits - layout.line_offset_bits
            way_bits = max(1, (layout.l1_associativity - 1).bit_length())
            self._add_spec(
                SRAMArraySpec(
                    name="wdu",
                    rows=malec.wdu_entries,
                    row_bits=line_tag_bits + way_bits + 1,
                    output_bits=way_bits + 1,
                    ports=malec.result_buses,
                    is_cam=True,
                    search_bits=line_tag_bits,
                )
            )
        if config.include_buffer_energy:
            self._add_spec(
                SRAMArraySpec(
                    name="sb",
                    rows=config.sb_entries,
                    row_bits=layout.address_bits + 32,
                    output_bits=32,
                    ports=1,
                    is_cam=True,
                    search_bits=layout.address_bits,
                )
            )
            self._add_spec(
                SRAMArraySpec(
                    name="mb",
                    rows=config.mb_entries,
                    row_bits=layout.address_bits + layout.line_bytes * 8,
                    output_bits=layout.line_bytes * 8,
                    ports=1,
                    is_cam=True,
                    search_bits=layout.address_bits,
                )
            )

    # ------------------------------------------------------------------
    # Event mapping
    # ------------------------------------------------------------------
    def _map(self, event: str, structure: str, kind: str, scale: float = 1.0) -> None:
        """Map ``event`` onto ``structure``; a no-op for an array this
        configuration does not have (way tables, WDU, SB/MB)."""
        if structure not in self.specs:
            return
        self.event_map.setdefault(event, []).append((structure, kind, scale))

    def _build_event_map(self) -> None:
        # L1 arrays.
        self._map("l1.tag_read", "l1.tag", "read")
        self._map("l1.tag_write", "l1.tag", "write")
        self._map("l1.data_read", "l1.data", "read")
        self._map("l1.data_write", "l1.data", "write")
        # Translation path: each lookup searches the virtual CAM and reads the
        # translation; reverse lookups search the physical CAM.
        for name in ("utlb", "tlb"):
            self._map(f"{name}.lookup", f"{name}.vtag", "read")
            self._map(f"{name}.reverse_lookup", f"{name}.ptag", "read")
            self._map(f"{name}.fill", f"{name}.vtag", "write")
            self._map(f"{name}.fill", f"{name}.ptag", "write")
        # Way tables: predictions read only the uWT, and only the WT's
        # entries are cleared (on TLB evictions).
        self._map("uwt.read", "uwt", "read")
        for name in ("uwt", "wt"):
            self._map(f"{name}.update", name, "write")
            self._map(f"{name}.entry_transfer", name, "write")
        self._map("wt.clear", "wt", "write")
        # WDU.
        self._map("wdu.lookup", "wdu", "read")
        self._map("wdu.update", "wdu", "write")
        # Store/merge buffer lookups (excluded from the paper's numbers).
        self._map("sb.lookup_full", "sb", "read")
        self._map("sb.lookup_offset", "sb", "read", scale=0.35)
        self._map("sb.lookup_page_shared", "sb", "read", scale=0.5)
        self._map("sb.insert", "sb", "write")
        self._map("mb.lookup_full", "mb", "read")
        self._map("mb.lookup_offset", "mb", "read", scale=0.35)
        self._map("mb.lookup_page_shared", "mb", "read", scale=0.5)
        self._map("mb.allocate", "mb", "write")
        self._map("mb.merged_store", "mb", "write")

    # ------------------------------------------------------------------
    # Energy computation
    # ------------------------------------------------------------------
    def access_energy_pj(self, structure: str, kind: str) -> float:
        """Per-access dynamic energy of ``structure`` for ``kind`` accesses.

        Memoised per (structure, kind): the value is a pure function of the
        static array specs, and the report path queries it for every event
        of every cell of a sweep.
        """
        key = (structure, kind)
        cached = self._access_energy_cache.get(key)
        if cached is not None:
            return cached
        spec = self.specs[structure]
        if kind == "read":
            energy = self.sram.read_energy_pj(spec)
        elif kind == "write":
            energy = self.sram.write_energy_pj(spec)
        else:
            raise ValueError(f"unknown access kind {kind!r}")
        self._access_energy_cache[key] = energy
        return energy

    def dynamic_energy_pj(self, stats: StatCounters) -> Dict[str, float]:
        """Dynamic energy per structure from the event counters."""
        totals: Dict[str, float] = {name: 0.0 for name in self.specs}
        for event, targets in self.event_map.items():
            count = stats.get(event)
            if not count:
                continue
            for structure, kind, scale in targets:
                totals[structure] += count * scale * self.access_energy_pj(structure, kind)
        # L1 control logic: a fixed energy per bank access (any mode), scaled
        # with the bank's port count like the arrays it steers.
        parameters = self.sram.parameters
        totals["l1.control"] = (
            stats.get("l1.ctrl")
            * parameters.l1_control_energy_pj
            * parameters.dynamic_port_scale(self.config.l1_read_ports)
        )
        return totals

    def leakage_power_mw(self) -> Dict[str, float]:
        """Leakage power per structure.

        Array multiplicities are applied here: there are ``banks x ways``
        L1 tag/data arrays but only one uTLB/TLB/uWT/WT instance each.
        """
        if self._leakage_cache is not None:
            return self._leakage_cache
        layout = self.config.cache.layout
        multipliers = {
            "l1.tag": layout.l1_banks * layout.l1_associativity,
            "l1.data": layout.l1_banks * layout.l1_associativity,
        }
        self._leakage_cache = {
            name: self.sram.leakage_mw(spec) * multipliers.get(name, 1)
            for name, spec in self.specs.items()
        }
        return self._leakage_cache

    # ------------------------------------------------------------------
    # Reports
    # ------------------------------------------------------------------
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
        dynamic = self.dynamic_energy_pj(stats)
        leakage_power = self.leakage_power_mw()
        for name in sorted(set(dynamic) | set(leakage_power)):
            report.structures[name] = StructureEnergy(
                dynamic_pj=dynamic.get(name, 0.0),
                leakage_pj=leakage_power.get(name, 0.0) * cycles,
            )
        return report
