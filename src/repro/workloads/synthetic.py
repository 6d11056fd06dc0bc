"""Synthetic trace generator expanding benchmark profiles into traces.

The generator interleaves the profile's access streams.  Each stream advances
through its own virtual-address region according to its behavioural template
(sequential sweep, hot region, pointer chase, strided buffer); the generator
switches between streams with the profile's stickiness, inserts compute
instructions to reach the target memory-reference fraction, and attaches
dependence edges (pointer-chase address dependencies and load-to-use edges)
that the out-of-order pipeline later has to respect.

Every profile is generated with its own seeded RNG, so traces are fully
reproducible and identical across the configurations being compared.  The
generator appends each record to a
:class:`~repro.workloads.columnar.TraceWriter`, so a trace is born as the
``.rtrc`` columns the simulator runs.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.memory.address import AddressLayout, DEFAULT_LAYOUT
from repro.workloads.columnar import ColumnarTrace, TraceWriter
from repro.workloads.profiles import BenchmarkProfile, StreamKind, StreamSpec

#: gap between the regions assigned to different streams (in pages); large
#: enough that streams never collide even with big footprints.
_REGION_STRIDE_PAGES = 1 << 14
#: first page of the synthetic address space region used by the generator
_REGION_BASE_PAGE = 1 << 6


class _StreamState:
    """Mutable per-stream generation state."""

    __slots__ = ("spec", "base_page", "page_index", "offset", "last_load_seq", "field_burst")

    def __init__(self, spec: StreamSpec, stream_index: int, rng: random.Random) -> None:
        self.spec = spec
        self.base_page = _REGION_BASE_PAGE + stream_index * _REGION_STRIDE_PAGES
        self.page_index = rng.randrange(spec.footprint_pages)
        self.offset = rng.randrange(0, 4096, 8)
        self.last_load_seq: Optional[int] = None
        #: remaining same-line "field" accesses of a pointer-chase node
        self.field_burst = 0

    # ------------------------------------------------------------------
    def next_address(self, rng: random.Random, layout: AddressLayout) -> int:
        """Advance the stream and return the next virtual address."""
        spec = self.spec
        page_bytes = layout.page_bytes
        if spec.kind in (StreamKind.SEQUENTIAL, StreamKind.STRIDED_BUFFER):
            self.offset += spec.stride_bytes
            if self.offset >= page_bytes:
                self.offset -= page_bytes
                self.page_index = (self.page_index + 1) % spec.footprint_pages
        elif spec.kind is StreamKind.HOT_REGION:
            if rng.random() >= spec.page_stay_probability:
                self.page_index = rng.randrange(spec.footprint_pages)
            # Mostly nearby offsets, occasionally a jump within the page.
            if rng.random() < 0.7:
                self.offset = (self.offset + rng.choice((4, 8, 8, 16, 64))) % page_bytes
            else:
                self.offset = rng.randrange(0, page_bytes, 4)
        else:  # POINTER_CHASE
            if self.field_burst > 0:
                # Accessing further fields of the current node: stay within
                # the node's cache line (what lets MALEC merge mcf's loads).
                self.field_burst -= 1
                line_base = self.offset - (self.offset % layout.line_bytes)
                self.offset = line_base + rng.randrange(0, layout.line_bytes, 8)
            else:
                if rng.random() >= spec.page_stay_probability:
                    self.page_index = rng.randrange(spec.footprint_pages)
                self.offset = rng.randrange(0, page_bytes, 8)
                self.field_burst = rng.choice((0, 1, 1, 2, 2, 3))
        page = self.base_page + self.page_index
        return layout.compose(page, self.offset)


class SyntheticTraceGenerator:
    """Expands a :class:`BenchmarkProfile` into a :class:`ColumnarTrace`."""

    def __init__(self, profile: BenchmarkProfile, layout: AddressLayout = DEFAULT_LAYOUT) -> None:
        self.profile = profile
        self.layout = layout

    # ------------------------------------------------------------------
    def generate(
        self, instructions: Optional[int] = None, seed: Optional[int] = None
    ) -> ColumnarTrace:
        """Generate a trace of ``instructions`` dynamic instructions.

        ``instructions`` and ``seed`` default to the profile's values, so a
        plain ``generate()`` is fully deterministic per benchmark.
        """
        profile = self.profile
        total = instructions if instructions is not None else profile.instructions
        rng = random.Random(seed if seed is not None else profile.seed)
        states = [
            _StreamState(spec, index, rng) for index, spec in enumerate(profile.streams)
        ]
        weights = [spec.weight for spec in profile.streams]

        writer = TraceWriter()
        add = writer.add
        count = 0
        current_stream = 0
        previous_stream = 0
        last_load_seq: Optional[int] = None

        while count < total:
            # ----------------------------------------------------------
            # Pick the stream for the next memory reference.  Switches
            # preferentially alternate with the previously active stream
            # (``a[i] = b[i] + c[i]`` style interleaving), which is what lets
            # a page re-appear after only one or two intermediate accesses —
            # the recovery Fig. 1 measures for 1..3 tolerated intermediates.
            # ----------------------------------------------------------
            if len(states) > 1 and rng.random() < profile.stream_switch_probability:
                if previous_stream != current_stream and rng.random() < 0.6:
                    current_stream, previous_stream = previous_stream, current_stream
                else:
                    previous_stream = current_stream
                    current_stream = rng.choices(range(len(states)), weights=weights, k=1)[0]
            state = states[current_stream]
            spec = state.spec

            address = state.next_address(rng, self.layout)
            is_store = rng.random() < spec.store_fraction

            # Dependencies are backward distances to the producing load.
            deps = ()
            if not is_store:
                if (
                    spec.kind is StreamKind.POINTER_CHASE
                    or rng.random() < profile.pointer_chase_dependency
                ):
                    if state.last_load_seq is not None:
                        deps = (count - state.last_load_seq,)
            elif last_load_seq is not None and rng.random() < profile.load_use_dependency:
                # Stores usually consume a recently produced value.
                deps = (count - last_load_seq,)

            # Store code 2, load code 1; the size is drawn after the deps.
            add(2 if is_store else 1, address, rng.choice((4, 4, 8)), deps)
            if not is_store:
                state.last_load_seq = last_load_seq = count
            count += 1

            # ----------------------------------------------------------
            # Interleave compute instructions (code 0, size 4, address 0)
            # to reach the memory fraction.
            # ----------------------------------------------------------
            while count < total and rng.random() > profile.memory_fraction:
                if last_load_seq is not None and rng.random() < profile.load_use_dependency:
                    deps = (count - last_load_seq,)
                elif rng.random() < 0.5:
                    deps = (1,)
                else:
                    deps = ()
                add(0, 0, 4, deps)
                count += 1

        return writer.finish(profile.name, profile.suite, self.layout)


def generate_trace(
    profile: BenchmarkProfile,
    instructions: Optional[int] = None,
    seed: Optional[int] = None,
    layout: AddressLayout = DEFAULT_LAYOUT,
) -> ColumnarTrace:
    """Convenience wrapper around :class:`SyntheticTraceGenerator`."""
    return SyntheticTraceGenerator(profile, layout=layout).generate(instructions, seed)
