"""Simulation configuration: Table I (interfaces) and Table II (parameters).

:class:`SimulationConfig` aggregates everything needed to build one of the
analyzed configurations — the interface kind and its options, the memory
hierarchy latencies and geometry, the translation structures and the pipeline
widths — and offers factory classmethods for the five configurations that
appear in Fig. 4 (``Base1ldst``, ``Base1ldst_1cycleL1`` / ``Base2ld1st_1cycleL1``,
``Base2ld1st``, ``MALEC`` and ``MALEC_3cycleL1``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Optional

from repro.energy.energy_model import EnergyModelConfig
from repro.memory.address import AddressLayout, DEFAULT_LAYOUT


class InterfaceKind(enum.Enum):
    """The three L1 interface models of Table I."""

    BASE_1LDST = "Base1ldst"
    BASE_2LD1ST = "Base2ld1st"
    MALEC = "MALEC"


@dataclass(frozen=True)
class CacheParameters:
    """L1/L2/DRAM parameters (Table II defaults)."""

    l1_hit_latency: int = 2
    l2_latency: int = 12
    dram_latency: int = 54
    layout: AddressLayout = DEFAULT_LAYOUT


@dataclass(frozen=True)
class TLBParameters:
    """Translation structure sizes (Table II defaults)."""

    utlb_entries: int = 16
    tlb_entries: int = 64
    walk_latency: int = 30


@dataclass(frozen=True)
class PipelineParameters:
    """Out-of-order core widths (Table II defaults)."""

    rob_entries: int = 168
    fetch_width: int = 6
    issue_width: int = 8
    commit_width: int = 6


@dataclass(frozen=True)
class MalecParameters:
    """Options specific to the MALEC interface (Secs. IV and V)."""

    way_determination: str = "wt"
    wdu_entries: int = 16
    enable_feedback_update: bool = True
    merge_granularity: str = "subblock_pair"
    result_buses: int = 4
    input_buffer_capacity: int = 2
    merge_window: int = 3
    restrict_way_allocation: bool = True


@dataclass(frozen=True)
class SimulationConfig:
    """Complete description of one simulated configuration."""

    name: str
    interface: InterfaceKind
    cache: CacheParameters = CacheParameters()
    tlb: TLBParameters = TLBParameters()
    pipeline: PipelineParameters = PipelineParameters()
    malec_options: MalecParameters = MalecParameters()
    lq_entries: int = 40
    sb_entries: int = 24
    mb_entries: int = 4
    include_buffer_energy: bool = False
    seed: int = 0

    # ------------------------------------------------------------------
    # Factories for the configurations of the evaluation section
    # ------------------------------------------------------------------
    @classmethod
    def base_1ldst(cls, l1_hit_latency: int = 2, name: Optional[str] = None) -> "SimulationConfig":
        """Energy-oriented baseline (one load or store per cycle)."""
        label = name or ("Base1ldst" if l1_hit_latency == 2 else f"Base1ldst_{l1_hit_latency}cycleL1")
        return cls(
            name=label,
            interface=InterfaceKind.BASE_1LDST,
            cache=CacheParameters(l1_hit_latency=l1_hit_latency),
        )

    @classmethod
    def base_2ld1st(cls, l1_hit_latency: int = 2, name: Optional[str] = None) -> "SimulationConfig":
        """Performance-oriented baseline (two loads + one store per cycle)."""
        label = name or ("Base2ld1st" if l1_hit_latency == 2 else f"Base2ld1st_{l1_hit_latency}cycleL1")
        return cls(
            name=label,
            interface=InterfaceKind.BASE_2LD1ST,
            cache=CacheParameters(l1_hit_latency=l1_hit_latency),
        )

    @classmethod
    def malec(
        cls,
        l1_hit_latency: int = 2,
        name: Optional[str] = None,
        malec_options: MalecParameters = MalecParameters(),
    ) -> "SimulationConfig":
        """The proposed MALEC interface."""
        label = name or ("MALEC" if l1_hit_latency == 2 else f"MALEC_{l1_hit_latency}cycleL1")
        return cls(
            name=label,
            interface=InterfaceKind.MALEC,
            cache=CacheParameters(l1_hit_latency=l1_hit_latency),
            malec_options=malec_options,
        )

    @classmethod
    def figure4_suite(cls) -> list["SimulationConfig"]:
        """The five configurations plotted in Fig. 4 (left to right)."""
        return [
            cls.base_1ldst(),
            cls.base_2ld1st(l1_hit_latency=1),
            cls.base_2ld1st(),
            cls.malec(),
            cls.malec(l1_hit_latency=3),
        ]

    # ------------------------------------------------------------------
    # Derived descriptions
    # ------------------------------------------------------------------
    def with_name(self, name: str) -> "SimulationConfig":
        """Copy of this configuration under a different display name."""
        return replace(self, name=name)

    @property
    def l1_read_ports(self) -> int:
        """L1 read ports per bank (Table I: Base2ld1st adds one read port)."""
        return 2 if self.interface is InterfaceKind.BASE_2LD1ST else 1

    @property
    def tlb_ports(self) -> int:
        """uTLB/TLB ports (Table I: Base2ld1st has 1 rd/wt + 2 rd)."""
        return 3 if self.interface is InterfaceKind.BASE_2LD1ST else 1

    @property
    def restrict_way_allocation(self) -> bool:
        """Whether L1 fills avoid the way the 2-bit way-table code of their
        line cannot express (Sec. V): only MALEC with way tables, when its
        option asks for it."""
        return (
            self.interface is InterfaceKind.MALEC
            and self.malec_options.way_determination == "wt"
            and self.malec_options.restrict_way_allocation
        )

    def energy_model_config(self) -> EnergyModelConfig:
        """Structural description consumed by the energy model."""
        is_malec = self.interface is InterfaceKind.MALEC
        uses_wt = is_malec and self.malec_options.way_determination == "wt"
        uses_wdu = is_malec and self.malec_options.way_determination == "wdu"
        return EnergyModelConfig(
            l1_ports=self.l1_read_ports,
            tlb_ports=self.tlb_ports,
            has_way_tables=uses_wt,
            wdu_entries=self.malec_options.wdu_entries if uses_wdu else 0,
            wdu_ports=self.malec_options.result_buses,
            include_buffers=self.include_buffer_energy,
            utlb_entries=self.tlb.utlb_entries,
            tlb_entries=self.tlb.tlb_entries,
            sb_entries=self.sb_entries,
            mb_entries=self.mb_entries,
            layout=self.cache.layout,
        )

    def table1_row(self) -> dict:
        """This configuration's row of Table I (ports and widths)."""
        if self.interface is InterfaceKind.BASE_1LDST:
            return {
                "configuration": self.name,
                "addr_comp_per_cycle": "1 ld/st",
                "utlb_tlb_ports": "1 rd/wt",
                "cache_ports": "1 rd/wt",
            }
        if self.interface is InterfaceKind.BASE_2LD1ST:
            return {
                "configuration": self.name,
                "addr_comp_per_cycle": "2 ld + 1 st",
                "utlb_tlb_ports": "1 rd/wt + 2 rd",
                "cache_ports": "1 rd/wt + 1 rd",
            }
        return {
            "configuration": self.name,
            "addr_comp_per_cycle": "1 ld + 2 ld/st",
            "utlb_tlb_ports": "1 rd/wt",
            "cache_ports": "1 rd/wt",
        }
