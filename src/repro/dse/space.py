"""Declarative search spaces over the simulator's configuration parameters.

A :class:`SearchSpace` spans a grid of :class:`~repro.sim.config.SimulationConfig`
variants: each :class:`Dimension` names one configuration knob (a dotted
attribute path such as ``malec_options.result_buses`` or
``cache.l1_hit_latency``) and the values it may take.  Points of the space
are indexed ``0 .. size-1`` in a fixed mixed-radix (row-major) order, so
every search strategy — and every re-run of one — enumerates candidates
identically, which is what makes frontiers reproducible across job counts
and across store resumes.

A point compiles into a concrete configuration via
:meth:`SearchSpace.candidate`; the engine sweeps candidates as
:class:`~repro.campaign.spec.CampaignSpec` grids, so all evaluations flow
through the existing content-hash-keyed result store and process-pool
executor.

Named presets:

``malec-mini``
    The Sec. VI-D sensitivity grid (result buses, Input Buffer capacity, L1
    hit latency, way-determination scheme) over a small locality-diverse
    benchmark subset — the smoke case of the DSE engine.
``malec-sensitivity``
    The same grid extended with the merge window, over the full
    locality-diverse subset at full trace length.
``interfaces``
    Interface kind x L1 latency — the Fig. 4 plane itself, where
    multi-point frontiers live (Base2ld1st fast but energy-hungry,
    Base1ldst frugal but slow, MALEC in between).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, is_dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.sim.config import SimulationConfig
from repro.workloads.registry import validate_workload
from repro.workloads.suites import LOCALITY_DIVERSE_BENCHMARKS


# ----------------------------------------------------------------------
# Dimensions
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Dimension:
    """One configuration knob and the values it ranges over.

    ``path`` is a dotted attribute path into :class:`SimulationConfig`
    (nested frozen dataclasses), e.g. ``"malec_options.result_buses"`` or
    ``"cache.l1_hit_latency"``.  ``name`` is the short label used in
    candidate display names and reports.
    """

    name: str
    path: str
    values: Tuple[object, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError(f"dimension {self.name!r} needs at least one value")
        if len(set(self.values)) != len(self.values):
            raise ValueError(f"dimension {self.name!r} has duplicate values")


def choice(name: str, path: str, values: Sequence[object]) -> Dimension:
    """A categorical/discrete dimension over an explicit value list."""
    return Dimension(name=name, path=path, values=tuple(values))


def int_range(name: str, path: str, start: int, stop: int, step: int = 1) -> Dimension:
    """An integer dimension covering ``start, start+step, ... <= stop``."""
    if step <= 0:
        raise ValueError("int_range needs a positive step")
    return Dimension(name=name, path=path, values=tuple(range(start, stop + 1, step)))


def _apply_override(config, path: Tuple[str, ...], value):
    """Replace the attribute at ``path`` inside nested frozen dataclasses."""
    head = path[0]
    if not hasattr(config, head):
        raise AttributeError(
            f"{type(config).__name__} has no parameter {head!r}"
        )
    if len(path) == 1:
        current = getattr(config, head)
        if isinstance(current, enum.Enum) and not isinstance(value, enum.Enum):
            value = type(current)(value)
        return replace(config, **{head: value})
    inner = getattr(config, head)
    if not is_dataclass(inner):
        raise AttributeError(f"{head!r} is not a parameter group")
    return replace(config, **{head: _apply_override(inner, path[1:], value)})


def format_value(value) -> str:
    if isinstance(value, enum.Enum):
        return str(value.value)
    return str(value)


# ----------------------------------------------------------------------
# Candidates
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Candidate:
    """One point of a search space, compiled to a concrete configuration."""

    index: int
    name: str
    config: SimulationConfig
    assignment: Tuple[Tuple[str, object], ...]


# ----------------------------------------------------------------------
# The search space
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SearchSpace:
    """A declarative configuration grid plus the benchmarks judging it.

    ``instructions`` is the *full-length* trace size; adaptive strategies
    may evaluate candidates on shorter prefixes first.  ``base`` is the
    configuration every dimension override is applied to; ``baseline`` is
    the fixed reference configuration all objectives normalize against
    (held constant across candidates, so normalization is a pure rescaling
    and never changes dominance relations).
    """

    name: str
    dimensions: Tuple[Dimension, ...]
    benchmarks: Tuple[str, ...] = LOCALITY_DIVERSE_BENCHMARKS
    instructions: int = 4_000
    warmup_fraction: float = 0.3
    seed: int = 0
    base: SimulationConfig = field(default_factory=SimulationConfig.malec)
    baseline: SimulationConfig = field(default_factory=SimulationConfig.base_1ldst)

    def __post_init__(self) -> None:
        if not self.dimensions:
            raise ValueError("a search space needs at least one dimension")
        names = [dim.name for dim in self.dimensions]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate dimension names: {names}")
        if not self.benchmarks:
            raise ValueError("a search space needs at least one benchmark")
        if self.instructions <= 0:
            raise ValueError("search spaces need at least one instruction")
        if not 0.0 <= self.warmup_fraction < 1.0:
            raise ValueError("warmup_fraction must lie in [0, 1)")
        for benchmark in self.benchmarks:
            validate_workload(benchmark)  # raises KeyError for unknown names

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of points in the grid."""
        total = 1
        for dim in self.dimensions:
            total *= len(dim.values)
        return total

    def assignment_at(self, index: int) -> Tuple[Tuple[str, object], ...]:
        """Decode ``index`` into a (dimension name, value) assignment.

        Row-major: the *last* dimension varies fastest, so enumeration
        order matches nested loops over ``dimensions`` in declaration
        order.
        """
        if not 0 <= index < self.size:
            raise IndexError(f"point {index} outside space of size {self.size}")
        digits: List[Tuple[str, object]] = []
        remainder = index
        for dim in reversed(self.dimensions):
            remainder, digit = divmod(remainder, len(dim.values))
            digits.append((dim.name, dim.values[digit]))
        return tuple(reversed(digits))

    def candidate(self, index: int) -> Candidate:
        """Compile point ``index`` into a named :class:`Candidate`."""
        assignment = self.assignment_at(index)
        config = self.base
        for dim, (_, value) in zip(self.dimensions, assignment):
            config = _apply_override(config, tuple(dim.path.split(".")), value)
        label = ",".join(f"{name}={format_value(value)}" for name, value in assignment)
        config = config.with_name(f"{self.base.name}[{label}]")
        return Candidate(
            index=index, name=config.name, config=config, assignment=assignment
        )

    def candidates(self, indices: Sequence[int]) -> List[Candidate]:
        """Compile several points (deterministic: ordered as given)."""
        return [self.candidate(index) for index in indices]

    def describe(self) -> dict:
        """JSON-able manifest of the space (stored alongside DSE results)."""
        return {
            "name": self.name,
            "dimensions": [
                {"name": dim.name, "path": dim.path, "values": [format_value(v) for v in dim.values]}
                for dim in self.dimensions
            ],
            "size": self.size,
            "benchmarks": list(self.benchmarks),
            "instructions": self.instructions,
            "warmup_fraction": self.warmup_fraction,
            "seed": self.seed,
            "base": self.base.name,
            "baseline": self.baseline.name,
        }

    # ------------------------------------------------------------------
    def with_overrides(
        self,
        benchmarks: Optional[Sequence[str]] = None,
        instructions: Optional[int] = None,
        warmup_fraction: Optional[float] = None,
    ) -> "SearchSpace":
        """Copy of the space with some scalar knobs replaced (CLI overrides)."""
        changes = {}
        if benchmarks is not None:
            changes["benchmarks"] = tuple(benchmarks)
        if instructions is not None:
            changes["instructions"] = instructions
        if warmup_fraction is not None:
            changes["warmup_fraction"] = warmup_fraction
        return replace(self, **changes) if changes else self


# ----------------------------------------------------------------------
# Presets
# ----------------------------------------------------------------------
def _sec6d_dimensions() -> Tuple[Dimension, ...]:
    """The four knobs Sec. VI-D varies by hand, as a full grid."""
    return (
        choice("buses", "malec_options.result_buses", (1, 2, 4, 6)),
        choice("ib", "malec_options.input_buffer_capacity", (1, 2, 3)),
        choice("l1lat", "cache.l1_hit_latency", (1, 2, 3)),
        choice("wd", "malec_options.way_determination", ("wt", "wdu")),
    )


#: small locality-diverse subset used by the smoke preset (one high- and one
#: low-locality paper benchmark plus the two synthetic extremes)
_MINI_DSE_BENCHMARKS = ("gzip", "djpeg", "ptrchase", "streamwrite")


def _malec_mini() -> SearchSpace:
    return SearchSpace(
        name="malec-mini",
        dimensions=_sec6d_dimensions(),
        benchmarks=_MINI_DSE_BENCHMARKS,
        instructions=2_000,
    )


def _malec_sensitivity() -> SearchSpace:
    return SearchSpace(
        name="malec-sensitivity",
        dimensions=_sec6d_dimensions()
        + (choice("mw", "malec_options.merge_window", (2, 3, 4)),),
        benchmarks=LOCALITY_DIVERSE_BENCHMARKS,
        instructions=5_000,
    )


def _interfaces() -> SearchSpace:
    """Span the paper's actual trade-off axis: the interface kind itself.

    Within MALEC-only spaces runtime and energy rarely conflict (the same
    knobs improve both), so frontiers can be a single point; crossing the
    Table I interfaces with the L1 latency reproduces the Fig. 4 plane —
    Base2ld1st fast but hungry, Base1ldst frugal but slow, MALEC between —
    where multi-point frontiers live.  The base is the plain ``MALEC``
    factory config; overriding ``interface`` turns it into the baselines
    (which simply ignore the MALEC-only options).
    """
    return SearchSpace(
        name="interfaces",
        dimensions=(
            choice("iface", "interface", ("Base1ldst", "Base2ld1st", "MALEC")),
            choice("l1lat", "cache.l1_hit_latency", (1, 2, 3)),
        ),
        benchmarks=_MINI_DSE_BENCHMARKS,
        instructions=4_000,
    )


SPACE_PRESETS: Dict[str, Callable[[], SearchSpace]] = {
    "malec-mini": _malec_mini,
    "malec-sensitivity": _malec_sensitivity,
    "interfaces": _interfaces,
}

#: preset names in presentation order (shown in ``repro dse`` CLI help)
SPACE_PRESET_NAMES: Tuple[str, ...] = tuple(SPACE_PRESETS)


def space_preset(name: str) -> SearchSpace:
    """Build the named preset space (raises ``KeyError`` for unknown names)."""
    try:
        factory = SPACE_PRESETS[name]
    except KeyError:
        raise KeyError(
            f"unknown space preset {name!r}; choose from {', '.join(SPACE_PRESET_NAMES)}"
        ) from None
    return factory()
