"""Declarative sweep campaigns: parameter grids over configurations x benchmarks.

A :class:`CampaignSpec` describes a full sweep — which benchmarks, which
:class:`~repro.sim.config.SimulationConfig` variants, how many instructions
per trace, how much warm-up — as plain data.  The spec expands into a list of
:class:`CampaignCell` objects (one simulation each); every cell has a
deterministic content hash (:func:`cell_key`) derived from the *complete*
configuration fingerprint, the benchmark, the trace length, the warm-up
fraction and the seed, so a persistent store can recognise already-computed
cells across processes and across runs.

Named presets cover the paper's sweeps:

``fig4``
    The five Fig. 4 configurations over all 38 benchmarks.
``fig4-mini``
    The same configurations over one representative benchmark per suite
    (quick smoke sweep).
``sec6d``
    The Sec. VI-D sensitivity grids — result-bus count, Input Buffer
    capacity, L1 hit latency and way-determination scheme — as MALEC option
    overrides over a locality-diverse benchmark subset.
"""

from __future__ import annotations

import enum
import hashlib
import json
from dataclasses import dataclass, fields, is_dataclass, replace
from functools import lru_cache
from typing import Callable, Dict, List, Sequence, Tuple

from repro.memory.address import AddressLayout
from repro.sim.config import (
    CacheParameters,
    InterfaceKind,
    MalecParameters,
    PipelineParameters,
    SimulationConfig,
    TLBParameters,
)
from repro.workloads.registry import (
    registered_handle,
    validate_workload,
    workload_trace_hash,
)
from repro.workloads.suites import (
    ALL_BENCHMARKS,
    LOCALITY_DIVERSE_BENCHMARKS,
    benchmark_profile,
)


# ----------------------------------------------------------------------
# Configuration (de)serialization
# ----------------------------------------------------------------------
def _encode(value):
    if is_dataclass(value) and not isinstance(value, type):
        return {f.name: _encode(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, (tuple, list)):
        return [_encode(item) for item in value]
    return value


def config_to_dict(config: SimulationConfig) -> dict:
    """JSON-able dictionary capturing every field of ``config``."""
    return _encode(config)


def config_from_dict(data: dict) -> SimulationConfig:
    """Rebuild a :class:`SimulationConfig` from :func:`config_to_dict` output."""
    return SimulationConfig(
        name=data["name"],
        interface=InterfaceKind(data["interface"]),
        cache=CacheParameters(
            l1_hit_latency=data["cache"]["l1_hit_latency"],
            l2_latency=data["cache"]["l2_latency"],
            dram_latency=data["cache"]["dram_latency"],
            layout=AddressLayout(**data["cache"]["layout"]),
        ),
        tlb=TLBParameters(**data["tlb"]),
        pipeline=PipelineParameters(**data["pipeline"]),
        malec_options=MalecParameters(**data["malec_options"]),
        lq_entries=data["lq_entries"],
        sb_entries=data["sb_entries"],
        mb_entries=data["mb_entries"],
        include_buffer_energy=data["include_buffer_energy"],
        seed=data["seed"],
    )


# ----------------------------------------------------------------------
# Cells and keys
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CampaignCell:
    """One (configuration, workload) simulation of a campaign.

    ``benchmark`` names either a synthetic benchmark profile or a registered
    ingested trace (:mod:`repro.workloads.registry`).  For synthetic
    workloads ``seed`` is an offset added to the benchmark profile's own
    trace seed; zero reproduces the default trace every other harness in the
    repository generates for that benchmark.  For ingested workloads
    ``trace_hash`` pins the exact trace content: the cell key embeds it, so
    stored results are recognised across processes as long as the same trace
    bytes are registered again — and never collide with a different trace
    that happens to share a name.
    """

    benchmark: str
    config: SimulationConfig
    instructions: int
    warmup_fraction: float = 0.3
    seed: int = 0
    trace_hash: str = ""

    def key(self) -> str:
        """Deterministic content hash identifying this cell.

        Computed once per cell object and kept beside its fields, not as
        one, so equality, hashing and pickles never see it: a lookup
        through :func:`cell_key`'s cache rehashes the whole configuration.
        """
        key = self.__dict__.get("_key")
        if key is None:
            key = self.__dict__["_key"] = cell_key(self)
        return key

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_key", None)
        return state

    def trace_seed(self) -> int:
        """The RNG seed of this cell's synthetic trace.

        Ingested traces are not generated, so their cells use the campaign
        seed verbatim (it only disambiguates the worker-payload cache key).
        """
        if self.trace_hash:
            return self.seed
        return benchmark_profile(self.benchmark).seed + self.seed


@lru_cache(maxsize=16384)
def cell_key(cell: CampaignCell) -> str:
    """Stable hex digest of (config, benchmark, instructions, warmup, seed).

    The digest covers the *entire* configuration (not just its display name),
    so two configurations that differ in any parameter never collide, while
    renaming a configuration without changing parameters *does* change the
    key — the name is part of how results are aggregated.

    Memoised: cells are frozen (hashable), and every run of a campaign
    builds its cells anew, so a resumed campaign asks again for the keys
    of the cells an earlier run built (each cell object keeps its own,
    :meth:`CampaignCell.key`).
    """
    payload = {
        "benchmark": cell.benchmark,
        "config": config_to_dict(cell.config),
        "instructions": cell.instructions,
        "warmup_fraction": cell.warmup_fraction,
        "seed": cell.seed,
    }
    if cell.trace_hash:
        # Only present for ingested-trace cells, so every key computed before
        # this field existed — including records already on disk — is stable.
        payload["trace_hash"] = cell.trace_hash
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:20]


# ----------------------------------------------------------------------
# Campaign specification
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CampaignSpec:
    """A declarative sweep: configurations x benchmarks at fixed trace length."""

    name: str
    configurations: Tuple[SimulationConfig, ...]
    benchmarks: Tuple[str, ...] = ALL_BENCHMARKS
    instructions: int = 5_000
    warmup_fraction: float = 0.3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.instructions <= 0:
            raise ValueError("campaigns need at least one instruction per trace")
        if not 0.0 <= self.warmup_fraction < 1.0:
            raise ValueError("warmup_fraction must lie in [0, 1)")
        if not self.configurations:
            raise ValueError("a campaign needs at least one configuration")
        if not self.benchmarks:
            raise ValueError("a campaign needs at least one benchmark")
        names = [config.name for config in self.configurations]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate configuration names in campaign: {names}")
        for benchmark in self.benchmarks:
            validate_workload(benchmark)  # raises KeyError for unknown names

    # ------------------------------------------------------------------
    def cells(self) -> List[CampaignCell]:
        """Expand the grid into cells, benchmark-major (matches Fig. 4 order)."""
        hashes = {
            benchmark: workload_trace_hash(benchmark) for benchmark in self.benchmarks
        }
        return [
            CampaignCell(
                benchmark=benchmark,
                config=config,
                instructions=self.instructions,
                warmup_fraction=self.warmup_fraction,
                seed=self.seed,
                trace_hash=hashes[benchmark],
            )
            for benchmark in self.benchmarks
            for config in self.configurations
        ]

    def configuration_names(self) -> List[str]:
        """Display names of the swept configurations, in grid order."""
        return [config.name for config in self.configurations]

    def describe(self) -> dict:
        """JSON-able manifest of the campaign (stored alongside results)."""
        manifest = {
            "name": self.name,
            "benchmarks": list(self.benchmarks),
            "configurations": [config_to_dict(c) for c in self.configurations],
            "instructions": self.instructions,
            "warmup_fraction": self.warmup_fraction,
            "seed": self.seed,
            "cells": len(self.benchmarks) * len(self.configurations),
        }
        traces = {
            benchmark: handle.fingerprint
            for benchmark in self.benchmarks
            for handle in [registered_handle(benchmark)]
            if handle is not None
        }
        if traces:
            manifest["traces"] = traces
        return manifest

    # ------------------------------------------------------------------
    def with_overrides(
        self,
        benchmarks: Sequence[str] = None,
        instructions: int = None,
        warmup_fraction: float = None,
        seed: int = None,
    ) -> "CampaignSpec":
        """Copy of the spec with some scalar knobs replaced (CLI overrides)."""
        changes = {}
        if benchmarks is not None:
            changes["benchmarks"] = tuple(benchmarks)
        if instructions is not None:
            changes["instructions"] = instructions
        if warmup_fraction is not None:
            changes["warmup_fraction"] = warmup_fraction
        if seed is not None:
            changes["seed"] = seed
        return replace(self, **changes) if changes else self


# ----------------------------------------------------------------------
# Presets for the paper's sweeps
# ----------------------------------------------------------------------
#: one representative benchmark per suite, used by the quick presets
_MINI_BENCHMARKS = ("gzip", "swim", "djpeg")

#: locality-diverse subset used by the Sec. VI-D sensitivity grids: the
#: paper's picks plus the two synthetic locality extremes (``ptrchase``,
#: ``streamwrite``), shared with the DSE space presets
_SEC6D_BENCHMARKS = LOCALITY_DIVERSE_BENCHMARKS


def _fig4() -> CampaignSpec:
    return CampaignSpec(
        name="fig4",
        configurations=tuple(SimulationConfig.figure4_suite()),
    )


def _fig4_mini() -> CampaignSpec:
    return CampaignSpec(
        name="fig4-mini",
        configurations=tuple(SimulationConfig.figure4_suite()),
        benchmarks=_MINI_BENCHMARKS,
    )


def _sec6d() -> CampaignSpec:
    configurations: List[SimulationConfig] = [SimulationConfig.base_1ldst()]
    for buses in (1, 2, 4, 6):
        configurations.append(
            SimulationConfig.malec(
                name=f"MALEC_{buses}bus",
                malec_options=MalecParameters(result_buses=buses),
            )
        )
    for capacity in (1, 3):
        configurations.append(
            SimulationConfig.malec(
                name=f"MALEC_ib{capacity}",
                malec_options=MalecParameters(input_buffer_capacity=capacity),
            )
        )
    for latency in (1, 3):
        configurations.append(SimulationConfig.malec(l1_hit_latency=latency))
    configurations.append(
        SimulationConfig.malec(
            name="MALEC_wdu",
            malec_options=MalecParameters(way_determination="wdu"),
        )
    )
    return CampaignSpec(
        name="sec6d",
        configurations=tuple(configurations),
        benchmarks=_SEC6D_BENCHMARKS,
    )


PRESETS: Dict[str, Callable[[], CampaignSpec]] = {
    "fig4": _fig4,
    "fig4-mini": _fig4_mini,
    "sec6d": _sec6d,
}

#: preset names in presentation order (shown in ``repro sweep`` CLI help)
PRESET_NAMES: Tuple[str, ...] = tuple(PRESETS)


def campaign_preset(name: str) -> CampaignSpec:
    """Build the named preset campaign (raises ``KeyError`` for unknown names)."""
    try:
        factory = PRESETS[name]
    except KeyError:
        raise KeyError(
            f"unknown campaign preset {name!r}; choose from {', '.join(PRESET_NAMES)}"
        ) from None
    return factory()
