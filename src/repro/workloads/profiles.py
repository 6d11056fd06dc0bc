"""Benchmark profiles: parameterized descriptions of memory behaviour.

A :class:`BenchmarkProfile` describes one benchmark's dynamic behaviour as a
mixture of *access streams*.  A stream models one source of memory references
a real program interleaves — a sequential array walk, a pointer chase through
a large heap, repeated accesses to a small hot region, stack traffic — and
the generator (:mod:`repro.workloads.synthetic`) switches between streams
with a configurable stickiness.  This interleaving of a few streams is what
produces the paper's key observation (Fig. 1): most loads are followed by
another load to the same page, and allowing one to three *intermediate*
accesses to a different page (i.e. from a different stream) recovers most of
the remainder.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from math import isfinite
from typing import Tuple


class StreamKind(enum.Enum):
    """Behavioural template of one access stream."""

    #: walks a large region with a fixed stride and little reuse (array
    #: sweeps; drives capacity misses as in ``swim``/``art``)
    SEQUENTIAL = "sequential"
    #: repeatedly touches a small set of pages with good temporal locality
    #: (hash tables, stack frames, media macroblock buffers)
    HOT_REGION = "hot_region"
    #: dependent loads whose address comes from the previous load of the
    #: stream (linked data structures; ``mcf``-style serialization)
    POINTER_CHASE = "pointer_chase"
    #: dense, line-sequential accesses within one buffer (media kernels;
    #: very high intra-line locality → load merging opportunities)
    STRIDED_BUFFER = "strided_buffer"


@dataclass(frozen=True)
class StreamSpec:
    """One access stream of a benchmark profile.

    Attributes
    ----------
    kind:
        Behavioural template.
    weight:
        Relative probability of an access being drawn from this stream
        (finite and positive).
    footprint_pages:
        Number of distinct pages the stream cycles through.
    stride_bytes:
        Address increment between consecutive accesses of the stream
        (SEQUENTIAL / STRIDED_BUFFER kinds).
    page_stay_probability:
        Probability that the stream's next access remains on its current
        page (HOT_REGION / POINTER_CHASE kinds).
    store_fraction:
        Fraction of this stream's references that are stores.
    """

    kind: StreamKind
    weight: float = 1.0
    footprint_pages: int = 8
    stride_bytes: int = 8
    page_stay_probability: float = 0.8
    store_fraction: float = 0.3

    def __post_init__(self) -> None:
        if not (isfinite(self.weight) and self.weight > 0):
            raise ValueError(f"stream weight must be finite and positive, got {self.weight!r}")
        if self.footprint_pages <= 0:
            raise ValueError("stream footprint must cover at least one page")
        if not 0 <= self.page_stay_probability <= 1:
            raise ValueError("page_stay_probability must be a probability")
        if not 0 <= self.store_fraction <= 1:
            raise ValueError("store_fraction must be a probability")


@dataclass(frozen=True)
class BenchmarkProfile:
    """Complete description of one synthetic benchmark.

    Attributes
    ----------
    name / suite:
        Benchmark name and suite label (``SPEC-INT``, ``SPEC-FP``, ``MB2``).
    memory_fraction:
        Fraction of instructions that are memory references (Sec. III: 40 %
        average, 45 % SPEC-INT, 37 % MediaBench2).
    streams:
        The access streams the benchmark interleaves.
    stream_switch_probability:
        Probability that consecutive memory references come from different
        streams — the source of "intermediate accesses to a different page".
    pointer_chase_dependency:
        Probability that a load's address depends on the previous load of
        its stream (serializes address computation, as in ``mcf``).
    load_use_dependency:
        Probability that a compute instruction depends on a recent load
        (load-to-use pressure; higher values make performance more sensitive
        to L1 latency, as the paper observes for SPEC-INT).
    instructions:
        Default trace length when the caller does not override it.
    seed:
        Per-benchmark RNG seed for reproducibility.
    """

    name: str
    suite: str
    memory_fraction: float = 0.40
    streams: Tuple[StreamSpec, ...] = field(default_factory=tuple)
    stream_switch_probability: float = 0.35
    pointer_chase_dependency: float = 0.05
    load_use_dependency: float = 0.35
    instructions: int = 20_000
    seed: int = 1

    def __post_init__(self) -> None:
        if not self.streams:
            raise ValueError("a profile needs at least one access stream")
        # summed left to right, as the generator's cumulative weights are
        weight_total = 0.0
        for stream in self.streams:
            weight_total += stream.weight
        if not isfinite(weight_total):
            raise ValueError(f"stream weights must have a finite sum, got {weight_total!r}")
        if not 0 < self.memory_fraction < 1:
            raise ValueError("memory_fraction must be in (0, 1)")
        for probability in (
            self.stream_switch_probability,
            self.pointer_chase_dependency,
            self.load_use_dependency,
        ):
            if not 0 <= probability <= 1:
                raise ValueError("profile probabilities must lie in [0, 1]")
        if self.instructions <= 0:
            raise ValueError("a profile must generate at least one instruction")

    @property
    def footprint_pages(self) -> int:
        """Upper bound on the number of distinct pages the profile touches."""
        return sum(stream.footprint_pages for stream in self.streams)
