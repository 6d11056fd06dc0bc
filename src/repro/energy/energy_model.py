"""Mapping from simulation event counters to SRAM array accesses.

The paper's methodology (Sec. VI-A) combines access statistics from the
cycle-level simulation with per-access energies from CACTI for the following
structures: the L1 data cache (tag and data arrays plus control logic), the
uTLB+uWT and the TLB+WT.  To account for reverse (physical) lookups, each TLB
is treated as two fully-associative tag arrays — a virtual and a physical one
— in front of the shared WT data array.  The LQ, SB and MB are excluded (they
are near-identical across configurations), as are the lower memory levels.

:class:`InterfaceEnergyModel` owns the list of array specifications of one
configuration (ports differ between Base1ldst, Base2ld1st and MALEC) together
with the mapping from event-counter names (produced by the hardware models)
to (array, access-kind) pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.energy.cacti import SRAMArraySpec, SRAMEnergyModel
from repro.memory.address import AddressLayout, DEFAULT_LAYOUT
from repro.stats import StatCounters

#: status bits per cache tag (valid + dirty)
_TAG_STATUS_BITS = 2


@dataclass
class EnergyModelConfig:
    """Structural description of one configuration's L1 data subsystem.

    Attributes
    ----------
    l1_ports:
        Ports on every L1 tag/data array (1 for Base1ldst and MALEC,
        2 for Base2ld1st's additional read port).
    tlb_ports:
        Ports on the uTLB/TLB arrays (1 for Base1ldst and MALEC, 3 for
        Base2ld1st: 1 read/write + 2 read, Table I).
    has_way_tables:
        Whether the uWT/WT data arrays exist (MALEC only).
    wdu_entries:
        Entries of a line-based WDU, 0 when no WDU is present.
    wdu_ports:
        Lookup ports of the WDU (4 for the evaluated MALEC configuration).
    include_buffers:
        Include SB/MB lookup energy (off by default, as in the paper).
    utlb_entries / tlb_entries:
        Sizes of the translation structures (Table II).
    """

    l1_ports: int = 1
    tlb_ports: int = 1
    has_way_tables: bool = False
    wdu_entries: int = 0
    wdu_ports: int = 4
    include_buffers: bool = False
    utlb_entries: int = 16
    tlb_entries: int = 64
    sb_entries: int = 24
    mb_entries: int = 4
    layout: AddressLayout = DEFAULT_LAYOUT


#: (structure name, access kind) — kind is "read" or "write"
EventTarget = Tuple[str, str, float]


class InterfaceEnergyModel:
    """Per-configuration array specs plus the event → access mapping."""

    def __init__(self, config: EnergyModelConfig) -> None:
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
        cfg = self.config
        layout = cfg.layout
        tag_bits = layout.tag_bits + _TAG_STATUS_BITS
        line_bits = layout.line_bytes * 8
        subblock_pair_bits = 2 * layout.subblock_bytes * 8
        page_id_bits = layout.page_id_bits

        # One way's tag array of one bank; the event counters already count
        # per-way, per-bank accesses so the spec granularity matches.
        self._add_spec(
            SRAMArraySpec(
                name="l1.tag",
                rows=layout.l1_sets_per_bank,
                row_bits=tag_bits,
                output_bits=tag_bits,
                ports=cfg.l1_ports,
            )
        )
        # One way's data array of one bank; reads drive out a sub-block pair.
        self._add_spec(
            SRAMArraySpec(
                name="l1.data",
                rows=layout.l1_sets_per_bank,
                row_bits=line_bits,
                output_bits=subblock_pair_bits,
                ports=cfg.l1_ports,
            )
        )
        # uTLB / TLB: virtual and physical CAM tag arrays + translation data.
        for name, entries in (("utlb", cfg.utlb_entries), ("tlb", cfg.tlb_entries)):
            self._add_spec(
                SRAMArraySpec(
                    name=f"{name}.vtag",
                    rows=entries,
                    row_bits=page_id_bits,
                    output_bits=page_id_bits,
                    ports=cfg.tlb_ports,
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
        if cfg.has_way_tables:
            entry_bits = 2 * layout.lines_per_page
            self._add_spec(
                SRAMArraySpec(
                    name="uwt",
                    rows=cfg.utlb_entries,
                    row_bits=entry_bits,
                    output_bits=entry_bits,
                    ports=1,
                )
            )
            self._add_spec(
                SRAMArraySpec(
                    name="wt",
                    rows=cfg.tlb_entries,
                    row_bits=entry_bits,
                    output_bits=entry_bits,
                    ports=1,
                )
            )
        if cfg.wdu_entries:
            line_tag_bits = layout.address_bits - layout.line_offset_bits
            way_bits = max(1, (layout.l1_associativity - 1).bit_length())
            self._add_spec(
                SRAMArraySpec(
                    name="wdu",
                    rows=cfg.wdu_entries,
                    row_bits=line_tag_bits + way_bits + 1,
                    output_bits=way_bits + 1,
                    ports=cfg.wdu_ports,
                    is_cam=True,
                    search_bits=line_tag_bits,
                )
            )
        if cfg.include_buffers:
            self._add_spec(
                SRAMArraySpec(
                    name="sb",
                    rows=cfg.sb_entries,
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
                    rows=cfg.mb_entries,
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
        if structure not in self.specs:
            return
        self.event_map.setdefault(event, []).append((structure, kind, scale))

    def _build_event_map(self) -> None:
        cfg = self.config
        layout = cfg.layout
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
        # Way tables.
        if cfg.has_way_tables:
            # Predictions read only the uWT, and only the WT's entries are
            # cleared (on TLB evictions).
            self._map("uwt.read", "uwt", "read")
            for name in ("uwt", "wt"):
                self._map(f"{name}.update", name, "write")
                self._map(f"{name}.entry_transfer", name, "write")
            self._map("wt.clear", "wt", "write")
        # WDU.
        if cfg.wdu_entries:
            self._map("wdu.lookup", "wdu", "read")
            self._map("wdu.update", "wdu", "write")
        # Store/merge buffer lookups (excluded from the paper's numbers).
        if cfg.include_buffers:
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
            * parameters.dynamic_port_scale(self.config.l1_ports)
        )
        return totals

    def leakage_power_mw(self) -> Dict[str, float]:
        """Leakage power per structure.

        Array multiplicities are applied here: there are ``banks x ways``
        L1 tag/data arrays but only one uTLB/TLB/uWT/WT instance each.
        """
        if self._leakage_cache is not None:
            return self._leakage_cache
        layout = self.config.layout
        multipliers = {
            "l1.tag": layout.l1_banks * layout.l1_associativity,
            "l1.data": layout.l1_banks * layout.l1_associativity,
        }
        self._leakage_cache = {
            name: self.sram.leakage_mw(spec) * multipliers.get(name, 1)
            for name, spec in self.specs.items()
        }
        return self._leakage_cache

