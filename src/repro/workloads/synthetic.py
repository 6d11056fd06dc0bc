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
generator is one loop over bound locals: per-stream state lives in plain
lists, and the records fill whole columns that reach
:meth:`~repro.workloads.columnar.TraceWriter.add_columns` in one call, so a
trace is born as the ``.rtrc`` columns the simulator runs.

The RNG draws are the ones ``random.Random`` makes for ``randrange``,
``choice`` and ``choices``, in the same order: ``below(n)`` is
``Random._randbelow_with_getrandbits`` on the public ``getrandbits`` (the
same function on every supported Python), and a weighted stream pick is
``choices``' own ``bisect``.  ``tests/test_determinism.py`` pins the bytes.
"""

from __future__ import annotations

import random
from bisect import bisect
from itertools import accumulate
from math import isfinite
from typing import Optional

from repro.memory.address import AddressLayout, DEFAULT_LAYOUT
from repro.workloads.columnar import ColumnarTrace, TraceWriter
from repro.workloads.profiles import BenchmarkProfile, StreamKind

#: gap between the regions assigned to different streams (in pages); large
#: enough that streams never collide even with big footprints.
_REGION_STRIDE_PAGES = 1 << 14
#: first page of the synthetic address space region used by the generator
_REGION_BASE_PAGE = 1 << 6

#: how a stream advances: a fixed stride, a hot region or a pointer chase
_LINEAR, _HOT, _CHASE = 0, 1, 2
_ADVANCE = {
    StreamKind.SEQUENTIAL: _LINEAR,
    StreamKind.STRIDED_BUFFER: _LINEAR,
    StreamKind.HOT_REGION: _HOT,
    StreamKind.POINTER_CHASE: _CHASE,
}
#: the nearby offset steps of a hot region
_HOT_STEPS = (4, 8, 8, 16, 64)
#: how many further fields of a pointer-chase node follow its first access
_FIELD_BURSTS = (0, 1, 1, 2, 2, 3)
#: access sizes of loads and stores
_SIZES = (4, 4, 8)


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
        plain ``generate()`` is fully deterministic per benchmark.  An address
        outside the layout raises :meth:`AddressLayout.compose`'s
        ``ValueError``, and stream weights whose total is not finite raise
        ``random.choices``' ``ValueError`` at the first weighted pick.
        """
        profile = self.profile
        layout = self.layout
        total = instructions if instructions is not None else profile.instructions
        rng = random.Random(seed if seed is not None else profile.seed)
        draw = rng.random
        getrandbits = rng.getrandbits

        def below(n: int) -> int:
            """A uniform int in ``[0, n)``, as ``randrange(n)`` draws it."""
            k = n.bit_length()
            r = getrandbits(k)
            while r >= n:
                r = getrandbits(k)
            return r

        streams = profile.streams
        rows = [
            (
                _ADVANCE[spec.kind],
                spec.stride_bytes,
                spec.footprint_pages,
                spec.page_stay_probability,
                spec.store_fraction,
                _REGION_BASE_PAGE + index * _REGION_STRIDE_PAGES,
            )
            for index, spec in enumerate(streams)
        ]
        # Per-stream state: page index, page offset (randrange(0, 4096, 8)),
        # remaining pointer-chase fields, last load.
        pages, offsets = [], []
        for spec in streams:
            pages.append(below(spec.footprint_pages))
            offsets.append(8 * below(512))
        bursts = [0] * len(streams)
        last_loads = [None] * len(streams)
        several = len(streams) > 1
        cumulative = list(accumulate(spec.weight for spec in streams))
        weight_total = cumulative[-1] + 0.0
        weights_finite = isfinite(weight_total)
        last_stream = len(streams) - 1

        switch_probability = profile.stream_switch_probability
        chase_dependency = profile.pointer_chase_dependency
        load_use = profile.load_use_dependency
        memory_fraction = profile.memory_fraction
        page_bytes = layout.page_bytes
        line_bytes = layout.line_bytes
        offset_bits = layout.page_offset_bits
        page_limit = 1 << layout.page_id_bits
        # randrange(0, page_bytes, 4), (0, page_bytes, 8) and (0, line_bytes, 8)
        word_slots = (page_bytes + 3) // 4
        node_slots = (page_bytes + 7) // 8
        field_slots = (line_bytes + 7) // 8

        # Compute records (code 0, size 4, address 0) fill every slot a
        # memory reference does not; ``distances`` holds each record's one
        # backward dependency distance, 0 for none.
        kinds = [0] * total
        sizes = [4] * total
        addresses = [0] * total
        distances = [0] * total
        count = 0
        current = previous = 0
        last_load = None

        while count < total:
            # ----------------------------------------------------------
            # Pick the stream for the next memory reference.  Switches
            # preferentially alternate with the previously active stream
            # (``a[i] = b[i] + c[i]`` style interleaving), which is what lets
            # a page re-appear after only one or two intermediate accesses —
            # the recovery Fig. 1 measures for 1..3 tolerated intermediates.
            # ----------------------------------------------------------
            if several and draw() < switch_probability:
                if previous != current and draw() < 0.6:
                    current, previous = previous, current
                else:
                    previous = current
                    if not weights_finite:
                        raise ValueError("Total of weights must be finite")
                    current = bisect(cumulative, draw() * weight_total, 0, last_stream)

            # Advance the stream to its next address.
            advance, stride, footprint, stay, store_fraction, base_page = rows[current]
            page = pages[current]
            offset = offsets[current]
            if advance == _LINEAR:
                offset += stride
                if offset >= page_bytes:
                    offset -= page_bytes
                    page = (page + 1) % footprint
            elif advance == _HOT:
                if draw() >= stay:
                    page = below(footprint)
                # Mostly nearby offsets, occasionally a jump within the page.
                if draw() < 0.7:
                    offset = (offset + _HOT_STEPS[below(5)]) % page_bytes
                else:
                    offset = 4 * below(word_slots)
            elif bursts[current]:
                # Accessing further fields of the current node: stay within
                # the node's cache line (what lets MALEC merge mcf's loads).
                bursts[current] -= 1
                offset = offset - offset % line_bytes + 8 * below(field_slots)
            else:
                if draw() >= stay:
                    page = below(footprint)
                offset = 8 * below(node_slots)
                bursts[current] = _FIELD_BURSTS[below(6)]
            pages[current] = page
            offsets[current] = offset
            page += base_page
            if page >= page_limit or not 0 <= offset < page_bytes:
                layout.compose(page, offset)  # raises the layout's ValueError
            addresses[count] = page << offset_bits | offset

            # Dependencies are backward distances to the producing load.
            if draw() < store_fraction:
                kinds[count] = 2
                # Stores usually consume a recently produced value.
                if last_load is not None and draw() < load_use:
                    distances[count] = count - last_load
            else:
                kinds[count] = 1
                if advance == _CHASE or draw() < chase_dependency:
                    stream_load = last_loads[current]
                    if stream_load is not None:
                        distances[count] = count - stream_load
                last_loads[current] = last_load = count
            # The size is drawn after the deps.
            sizes[count] = _SIZES[below(3)]
            count += 1

            # Interleave compute instructions to reach the memory fraction.
            while count < total and draw() > memory_fraction:
                if last_load is not None and draw() < load_use:
                    distances[count] = count - last_load
                elif draw() < 0.5:
                    distances[count] = 1
                count += 1

        writer = TraceWriter()
        writer.add_columns(
            kinds, bytes(map(bool, distances)), sizes, addresses, list(filter(None, distances))
        )
        return writer.finish(profile.name, profile.suite, layout)


def generate_trace(
    profile: BenchmarkProfile,
    instructions: Optional[int] = None,
    seed: Optional[int] = None,
    layout: AddressLayout = DEFAULT_LAYOUT,
) -> ColumnarTrace:
    """Convenience wrapper around :class:`SyntheticTraceGenerator`."""
    return SyntheticTraceGenerator(profile, layout=layout).generate(instructions, seed)
