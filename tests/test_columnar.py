"""Property tests for the zero-copy columnar ``.rtrc`` view.

The structural guarantees the columnar trace view rests on:

* **round-trip** — writing an object trace and lifting its ``.rtrc`` bytes
  into columns yields exactly the records the objects describe, and
  ``to_bytes`` reproduces the input buffer bit-for-bit;
* **fingerprint invariance** — the ``fingerprint()`` of a trace equals that
  of its decoded bytes (campaign cell keys must not care which path
  registered a trace), and renaming a trace never changes it;
* **validation** — truncated/oversized bodies, unknown kind codes, a
  dependency pool inconsistent with the per-record ``ndeps`` counts, zero
  dependency distances and zero-size memory records are all rejected with
  a :class:`~repro.workloads.binfmt.TraceFormatError` naming the offender;
* **bounds** — dependency distances reaching before the start of the trace
  are dropped from producer tuples exactly like the object path drops them.

Each property is a plain checker driven by ``hypothesis`` when installed
and by a seeded ``random`` sweep otherwise (the pattern of
``tests/test_property_invariants.py``), so minimal environments keep the
coverage.
"""

from __future__ import annotations

import random

import pytest

from repro.cpu.instruction import Instruction, InstructionKind
from repro.cpu.pipeline import OutOfOrderPipeline
from repro.sim.config import SimulationConfig
from repro.sim.simulator import Simulator
from repro.workloads.binfmt import TraceFormatError, dump_rtrc, read_header
from repro.workloads.columnar import ColumnarTrace, TraceWriter, as_columnar
from repro.workloads.ingest import window
from repro.workloads.trace import MemoryTrace

try:  # pragma: no cover - which branch runs depends on the environment
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover
    HAVE_HYPOTHESIS = False

#: cases per property in the stdlib-random fallback sweep
FALLBACK_CASES = 25

#: byte offset of the record section for an empty name/suite (prelude only)
_PRELUDE_SIZE = 56


def fallback_seeds():
    """Deterministic seeds for the no-hypothesis sweep."""
    return pytest.mark.parametrize("seed", range(FALLBACK_CASES))


def random_trace(seed: int, max_len: int = 60) -> MemoryTrace:
    """A random but well-formed trace: mixed kinds, deps, odd sizes."""
    rng = random.Random(seed)
    instructions = []
    for seq in range(rng.randint(1, max_len)):
        roll = rng.random()
        deps = ()
        if seq and rng.random() < 0.4:
            deps = tuple(
                rng.randint(1, seq) for _ in range(rng.randint(1, min(3, seq)))
            )
        if roll < 0.4:
            instructions.append(Instruction(kind=InstructionKind.COMPUTE, deps=deps))
        else:
            kind = InstructionKind.LOAD if roll < 0.75 else InstructionKind.STORE
            instructions.append(
                Instruction(
                    kind=kind,
                    address=rng.randrange(0, 1 << 32, 2),
                    size=rng.choice((1, 2, 4, 8, 16)),
                    deps=deps,
                )
            )
    return MemoryTrace(
        name=f"prop{seed}", instructions=instructions, suite="PROP"
    )


def build_pipeline_arrays(instructions, capacity: int):
    """Reference seq-indexed ``(kinds, addresses, sizes, producers)`` arrays,
    built instruction by instruction from the object form of a trace.

    ``kinds[seq]`` is 0/1/2 for compute/load/store and ``producers[seq]``
    the tuple of absolute in-range producer seqs; ``sizes[seq]`` carries the
    instruction's size verbatim, even for computes.
    """
    kinds = bytearray(capacity)
    addresses = [0] * capacity
    sizes = [0] * capacity
    producers = [()] * capacity
    for instruction in instructions:
        seq = instruction.seq
        if instruction.is_load:
            kinds[seq] = 1
        elif instruction.is_store:
            kinds[seq] = 2
        sizes[seq] = instruction.size
        if instruction.address is not None:
            addresses[seq] = instruction.address
        if instruction.deps:
            producers[seq] = tuple(seq - d for d in instruction.deps if seq - d >= 0)
    return kinds, addresses, sizes, producers


def record_offset(payload: bytes, index: int) -> int:
    """Byte offset of record ``index`` inside ``payload``."""
    return read_header(payload)["body_offset"] + 12 * index


def encode(trace: MemoryTrace) -> bytes:
    """The ``.rtrc`` bytes of an object trace."""
    return trace.columnar().to_bytes()


def record_deps(view: ColumnarTrace, seq: int) -> tuple:
    """The backward dependency distances of record ``seq``."""
    offsets = view.dep_offsets()
    return tuple(view.deps_pool[offsets[seq] : offsets[seq + 1]])


# ----------------------------------------------------------------------
# Property checkers (shared by both drivers)
# ----------------------------------------------------------------------
def check_round_trip(seed: int) -> None:
    """Written and decoded columns hold exactly the objects' records."""
    trace = random_trace(seed)
    payload = encode(trace)
    view = ColumnarTrace.from_rtrc_bytes(payload)
    instructions = trace.instructions
    assert len(view) == len(instructions)
    assert view.name == trace.name and view.suite == trace.suite
    assert view.layout == trace.layout
    codes = {InstructionKind.COMPUTE: 0, InstructionKind.LOAD: 1, InstructionKind.STORE: 2}
    for seq, instruction in enumerate(instructions):
        assert view.kinds[seq] == codes[instruction.kind]
        assert view.addresses[seq] == (instruction.address or 0)
        assert view.sizes[seq] == instruction.size
        assert record_deps(view, seq) == instruction.deps
    assert view.to_bytes() == payload
    assert view.load_count == sum(1 for i in instructions if i.is_load)
    assert view.store_count == sum(1 for i in instructions if i.is_store)


def check_fingerprint_invariance(seed: int) -> None:
    """Written and decoded hashes agree; names don't participate."""
    trace = random_trace(seed)
    view = trace.columnar()
    renamed = MemoryTrace(
        name="other", instructions=trace.instructions, suite="ELSEWHERE"
    )
    assert renamed.columnar().fingerprint() == view.fingerprint()
    assert ColumnarTrace.from_rtrc_bytes(encode(trace)).fingerprint() == (
        view.fingerprint()
    )


def check_truncation_rejected(seed: int) -> None:
    """Any strict prefix or suffix-extended buffer must be rejected."""
    rng = random.Random(seed)
    payload = encode(random_trace(seed))
    for cut in sorted({rng.randrange(len(payload)) for _ in range(6)} | {0}):
        with pytest.raises(TraceFormatError):
            ColumnarTrace.from_rtrc_bytes(payload[:cut])
    with pytest.raises(TraceFormatError, match="truncated or oversized"):
        ColumnarTrace.from_rtrc_bytes(payload + b"\x00" * rng.randint(1, 8))


def check_corrupt_kind_rejected(seed: int) -> None:
    """A kind byte outside 0/1/2 is named by record index."""
    rng = random.Random(seed)
    trace = random_trace(seed)
    payload = bytearray(encode(trace))
    index = rng.randrange(len(trace.instructions))
    payload[record_offset(bytes(payload), index)] = rng.randint(3, 255)
    with pytest.raises(TraceFormatError, match=f"kind code .* \\(record {index}\\)"):
        ColumnarTrace.from_rtrc_bytes(bytes(payload))


def check_inconsistent_deps_pool_rejected(seed: int) -> None:
    """ndeps bytes must sum to the pool length exactly."""
    trace = random_trace(seed)
    payload = bytearray(encode(trace))
    index = random.Random(seed).randrange(len(trace.instructions))
    offset = record_offset(bytes(payload), index) + 1
    payload[offset] += 1  # claim one more pool entry than the pool holds
    with pytest.raises(TraceFormatError, match="inconsistent .rtrc dependency pool"):
        ColumnarTrace.from_rtrc_bytes(bytes(payload))


def check_zero_dep_distance_rejected(seed: int) -> None:
    """A zero distance in the pool is corrupt and is named by entry index."""
    trace = random_trace(seed)
    view = trace.columnar()
    pool_len = len(view.deps_pool)
    if not pool_len:
        return  # nothing to corrupt; another seed covers this
    payload = bytearray(encode(trace))
    entry = random.Random(seed).randrange(pool_len)
    start = len(payload) - 4 * (pool_len - entry)
    payload[start : start + 4] = b"\x00\x00\x00\x00"
    with pytest.raises(TraceFormatError, match=f"entry {entry} is zero"):
        ColumnarTrace.from_rtrc_bytes(bytes(payload))


def check_zero_size_memory_rejected(seed: int) -> None:
    """A load/store with size 0 is corrupt; computes may carry any size."""
    trace = random_trace(seed)
    memory_indices = [i for i, ins in enumerate(trace.instructions) if ins.is_memory]
    if not memory_indices:
        return
    payload = bytearray(encode(trace))
    index = random.Random(seed).choice(memory_indices)
    offset = record_offset(bytes(payload), index) + 2
    payload[offset : offset + 2] = b"\x00\x00"
    with pytest.raises(TraceFormatError, match=f"record {index}.*zero size"):
        ColumnarTrace.from_rtrc_bytes(bytes(payload))


def check_pipeline_arrays_match_object_path(seed: int) -> None:
    """Batched interpretation equals build_pipeline_arrays, bit for bit."""
    trace = random_trace(seed)
    view = trace.columnar()
    kinds, addresses, sizes, producers = view.pipeline_arrays()
    o_kinds, o_addresses, o_sizes, o_producers = build_pipeline_arrays(
        trace.instructions, len(trace.instructions)
    )
    assert bytes(o_kinds) == bytes(kinds)
    assert list(o_addresses) == list(addresses)
    assert list(o_sizes) == list(sizes)
    assert list(o_producers) == list(producers)


def check_out_of_range_deps_dropped(seed: int) -> None:
    """Distances reaching before seq 0 never become producers."""
    rng = random.Random(seed)
    instructions = [
        Instruction(kind=InstructionKind.LOAD, address=64 * i, size=4)
        for i in range(6)
    ]
    # Every load depends on something far before the window start.
    for seq, instruction in enumerate(instructions):
        instructions[seq] = Instruction(
            kind=instruction.kind,
            address=instruction.address,
            size=instruction.size,
            deps=(seq + rng.randint(1, 1000),),
        )
    view = MemoryTrace(name="oob", instructions=instructions).columnar()
    _, _, _, producers = view.pipeline_arrays()
    assert all(p == () for p in producers)
    # The distances themselves still round-trip (they are data, not indices).
    assert [record_deps(view, seq) for seq in range(len(view))] == [
        ins.deps for ins in instructions
    ]


def check_head_and_slice_consistency(seed: int) -> None:
    """window(0, n)/run_slice() agree with slicing the object trace."""
    rng = random.Random(seed)
    trace = random_trace(seed)
    view = trace.columnar()
    length = len(trace.instructions)
    count = rng.randint(0, length)
    head = window(view, 0, count)
    assert len(head) == count
    assert (head.name, head.suite) == (view.name, view.suite)
    assert head.fingerprint() == as_columnar(trace.instructions[:count]).fingerprint()
    start = rng.randint(0, length)
    stop = rng.randint(start, length)
    run = view.run_slice(start, stop)
    assert len(run) == stop - start
    seqs, total, capacity, arrays = run.columnar_pipeline_plan()
    assert list(seqs) == list(range(start, stop))
    assert total == stop - start and capacity == stop
    assert arrays is view.pipeline_arrays()


# ----------------------------------------------------------------------
# Drivers
# ----------------------------------------------------------------------
CHECKERS = (
    check_round_trip,
    check_fingerprint_invariance,
    check_truncation_rejected,
    check_corrupt_kind_rejected,
    check_inconsistent_deps_pool_rejected,
    check_zero_dep_distance_rejected,
    check_zero_size_memory_rejected,
    check_pipeline_arrays_match_object_path,
    check_out_of_range_deps_dropped,
    check_head_and_slice_consistency,
)


if HAVE_HYPOTHESIS:

    class TestColumnarPropertiesHypothesis:
        @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
        @settings(
            max_examples=30,
            deadline=None,
            suppress_health_check=[HealthCheck.too_slow],
        )
        @pytest.mark.parametrize("checker", CHECKERS, ids=lambda c: c.__name__)
        def test_property(self, checker, seed):
            checker(seed)

else:  # pragma: no cover - minimal environments only

    class TestColumnarPropertiesFallback:
        @fallback_seeds()
        @pytest.mark.parametrize("checker", CHECKERS, ids=lambda c: c.__name__)
        def test_property(self, checker, seed):
            checker(seed)


# ----------------------------------------------------------------------
# Directed cases (exact messages, files, pipeline input)
# ----------------------------------------------------------------------
class TestColumnarDirected:
    def test_empty_trace_round_trips(self):
        view = MemoryTrace(name="empty", instructions=[]).columnar()
        assert len(view) == 0
        assert view.pipeline_arrays()[0] == b""
        assert window(view, 0, 3).to_bytes() == view.to_bytes()

    def test_wide_addresses_survive_the_byte_lane_gather(self):
        # Exercise all eight address byte lanes (a 48-bit address space).
        from repro.memory.address import AddressLayout

        trace = MemoryTrace(
            name="wide",
            instructions=[
                Instruction(
                    kind=InstructionKind.LOAD, address=(0xBEEF << 32) | 0x1234, size=8
                ),
                Instruction(kind=InstructionKind.STORE, address=(1 << 47) - 64, size=4),
            ],
            layout=AddressLayout(address_bits=48),
        )
        view = ColumnarTrace.from_rtrc_bytes(encode(trace))
        assert list(view.addresses) == [(0xBEEF << 32) | 0x1234, (1 << 47) - 64]
        assert view.to_bytes() == encode(trace)

    def test_from_rtrc_bytes_accepts_buffer_views(self):
        payload = encode(random_trace(5))
        for data in (bytearray(payload), memoryview(payload)):
            view = ColumnarTrace.from_rtrc_bytes(data)
            assert view.to_bytes() == payload

    def test_whole_view_drives_the_pipeline(self):
        # A full ColumnarTrace (not a run_slice window) is itself a valid
        # pipeline input, equal to the window covering it.
        trace = random_trace(23)
        cycles = []
        length = len(trace.instructions)
        for source in (trace.columnar(), trace.columnar().run_slice(0, length)):
            simulator = Simulator(SimulationConfig.malec())
            pipeline = OutOfOrderPipeline(
                simulator.interface,
                params=simulator.config.pipeline,
                stats=simulator.stats,
            )
            cycles.append(pipeline.run(source).cycles)
        assert cycles[0] == cycles[1]

    def test_load_reads_rtrc_files(self, tmp_path):
        trace = random_trace(7)
        for suffix in (".rtrc", ".rtrc.gz"):
            path = tmp_path / f"t{suffix}"
            dump_rtrc(trace, path)
            view = ColumnarTrace.load(path)
            assert view.fingerprint() == trace.columnar().fingerprint()
            assert view.to_bytes() == encode(trace)

    def test_load_error_names_the_file(self, tmp_path):
        path = tmp_path / "bad.rtrc"
        path.write_bytes(b"RTRC but not really")
        with pytest.raises(TraceFormatError, match="bad.rtrc"):
            ColumnarTrace.load(path)

    def test_deps_pool_is_zero_copy_on_le_hosts(self):
        import sys

        view = ColumnarTrace.from_rtrc_bytes(encode(random_trace(11)))
        if sys.byteorder == "little":
            assert isinstance(view.deps_pool, memoryview)
            assert view.deps_pool.format == "I"

    def test_dep_offsets_are_prefix_sums(self):
        view = random_trace(13).columnar()
        offsets = view.dep_offsets()
        assert offsets[0] == 0
        for seq in range(len(view)):
            assert offsets[seq + 1] - offsets[seq] == view.ndeps[seq]
        assert offsets[len(view)] == len(view.deps_pool)

    def test_memorytrace_columnar_is_cached_until_growth(self):
        trace = random_trace(17)
        first = trace.columnar()
        assert trace.columnar() is first
        trace.append(Instruction(kind=InstructionKind.COMPUTE))
        regrown = trace.columnar()
        assert regrown is not first
        assert len(regrown) == len(first) + 1


class TestTraceWriter:
    """The writer rejects every field its ``.rtrc`` width cannot hold."""

    @pytest.mark.parametrize(
        "fields, message",
        [
            ((1, -16, 4), "address -16 outside"),
            ((1, 1 << 64, 4), f"address {1 << 64} outside"),
            ((2, 0x40, 65536), "size 65536 outside"),
            ((1, 0x40, 0), "load with non-positive size 0"),
            ((2, 0x40, -4), "store with non-positive size -4"),
            ((0, 0, 4, (1,) * 256), "256 dependencies"),
            ((0, 0, 4, (0,)), "dependency distances"),
            ((0, 0, 4, (1 << 32,)), "dependency distances"),
            ((1, 0x40, 4, (-1,)), "dependency distances"),
        ],
    )
    def test_rejects_out_of_range_fields(self, fields, message):
        writer = TraceWriter()
        writer.add(1, 0x1000, 4)
        with pytest.raises(TraceFormatError, match=message):
            writer.add(*fields)
        view = writer.finish("ok")
        assert len(view) == 1 and list(view.addresses) == [0x1000]

    def test_widest_fields_fit(self):
        writer = TraceWriter()
        writer.add(0)
        writer.add(2, (1 << 64) - 1, 65535, (1,) * 255)
        writer.add(1, 0, 1, ((1 << 32) - 1,))
        view = writer.finish("wide", "unit")
        assert list(view.addresses) == [0, (1 << 64) - 1, 0]
        assert list(view.sizes) == [4, 65535, 1]
        assert record_deps(view, 1) == (1,) * 255
        assert record_deps(view, 2) == ((1 << 32) - 1,)


class TestPlainListAdapter:
    """Plain Instruction lists are adapted once, at entry, without writing
    to the caller's objects."""

    @staticmethod
    def instructions(seed: int):
        """Fresh Instruction objects (``seq`` still -1) for ``random_trace``."""
        return [
            Instruction(kind=i.kind, address=i.address, size=i.size, deps=i.deps)
            for i in random_trace(seed).instructions
        ]

    @pytest.mark.parametrize("seed", range(3))
    def test_simulator_list_matches_memory_trace(self, seed):
        config = SimulationConfig.malec()
        plain = self.instructions(seed)
        from_list = Simulator(config).run(plain, warmup_fraction=0.25)
        trace = MemoryTrace(name="same", instructions=self.instructions(seed))
        from_trace = Simulator(config).run(trace, warmup_fraction=0.25)
        assert (from_list.cycles, from_list.stats) == (from_trace.cycles, from_trace.stats)
        assert from_list.energy == from_trace.energy
        assert all(instruction.seq == -1 for instruction in plain)

    @pytest.mark.parametrize("seed", range(3))
    def test_pipeline_list_matches_memory_trace(self, seed):
        def run(source):
            simulator = Simulator(SimulationConfig.base_2ld1st())
            pipeline = OutOfOrderPipeline(
                simulator.interface,
                params=simulator.config.pipeline,
                stats=simulator.stats,
            )
            return pipeline.run(source), simulator.stats.as_dict()

        plain = self.instructions(seed)
        from_list = run(plain)
        assert from_list == run(MemoryTrace(name="same", instructions=self.instructions(seed)))
        assert all(instruction.seq == -1 for instruction in plain)

    def test_empty_list_is_a_zero_cycle_run(self):
        result = Simulator(SimulationConfig.malec()).run([])
        assert (result.cycles, result.instructions) == (0, 0)
        simulator = Simulator(SimulationConfig.base_1ldst())
        outcome = OutOfOrderPipeline(simulator.interface).run([])
        assert (outcome.cycles, outcome.instructions) == (0, 0)
