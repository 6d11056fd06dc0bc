"""Property tests for the zero-copy columnar ``.rtrc`` view.

The structural guarantees the columnar trace view rests on:

* **round-trip** — lifting ``.rtrc`` bytes into columns and materializing
  them back yields exactly the instruction stream the object decoder sees,
  and ``to_bytes`` reproduces the input buffer bit-for-bit;
* **fingerprint invariance** — the columnar ``fingerprint()`` equals the
  object path's ``trace_fingerprint`` (campaign cell keys must not care
  which view registered a trace), and renaming a trace never changes it;
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
from repro.workloads.binfmt import (
    TraceFormatError,
    decode_trace,
    dump_rtrc,
    encode_trace,
    read_header,
    trace_fingerprint,
)
from repro.workloads.columnar import ColumnarTrace
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


# ----------------------------------------------------------------------
# Property checkers (shared by both drivers)
# ----------------------------------------------------------------------
def check_round_trip(seed: int) -> None:
    """Columns -> instructions must equal the object decoder, bytes and all."""
    trace = random_trace(seed)
    payload = encode_trace(trace)
    view = ColumnarTrace.from_rtrc_bytes(payload)
    oracle = decode_trace(payload)
    assert len(view) == len(oracle)
    assert view.name == oracle.name and view.suite == oracle.suite
    assert view.layout == oracle.layout
    for mine, theirs in zip(view.instructions(), oracle.instructions):
        assert mine.kind is theirs.kind
        assert mine.address == theirs.address
        assert mine.size == theirs.size
        assert mine.deps == theirs.deps
        assert mine.seq == theirs.seq
    assert view.to_bytes() == payload
    assert encode_trace(view.materialize()) == payload
    assert view.load_count == len(oracle.loads)
    assert view.store_count == len(oracle.stores)


def check_fingerprint_invariance(seed: int) -> None:
    """Columnar and object hashes agree; names don't participate."""
    trace = random_trace(seed)
    view = trace.columnar()
    assert view.fingerprint() == trace_fingerprint(trace)
    renamed = MemoryTrace(
        name="other", instructions=trace.instructions, suite="ELSEWHERE"
    )
    assert renamed.columnar().fingerprint() == view.fingerprint()
    assert ColumnarTrace.from_rtrc_bytes(encode_trace(trace)).fingerprint() == (
        view.fingerprint()
    )


def check_truncation_rejected(seed: int) -> None:
    """Any strict prefix or suffix-extended buffer must be rejected."""
    rng = random.Random(seed)
    payload = encode_trace(random_trace(seed))
    for cut in sorted({rng.randrange(len(payload)) for _ in range(6)} | {0}):
        with pytest.raises(TraceFormatError):
            ColumnarTrace.from_rtrc_bytes(payload[:cut])
    with pytest.raises(TraceFormatError, match="truncated or oversized"):
        ColumnarTrace.from_rtrc_bytes(payload + b"\x00" * rng.randint(1, 8))


def check_corrupt_kind_rejected(seed: int) -> None:
    """A kind byte outside 0/1/2 is named by record index."""
    rng = random.Random(seed)
    trace = random_trace(seed)
    payload = bytearray(encode_trace(trace))
    index = rng.randrange(len(trace))
    payload[record_offset(bytes(payload), index)] = rng.randint(3, 255)
    with pytest.raises(TraceFormatError, match=f"kind code .* \\(record {index}\\)"):
        ColumnarTrace.from_rtrc_bytes(bytes(payload))


def check_inconsistent_deps_pool_rejected(seed: int) -> None:
    """ndeps bytes must sum to the pool length exactly."""
    trace = random_trace(seed)
    payload = bytearray(encode_trace(trace))
    index = random.Random(seed).randrange(len(trace))
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
    payload = bytearray(encode_trace(trace))
    entry = random.Random(seed).randrange(pool_len)
    start = len(payload) - 4 * (pool_len - entry)
    payload[start : start + 4] = b"\x00\x00\x00\x00"
    with pytest.raises(TraceFormatError, match=f"entry {entry} is zero"):
        ColumnarTrace.from_rtrc_bytes(bytes(payload))


def check_zero_size_memory_rejected(seed: int) -> None:
    """A load/store with size 0 is corrupt; computes may carry any size."""
    trace = random_trace(seed)
    memory_indices = [i for i, ins in enumerate(trace) if ins.is_memory]
    if not memory_indices:
        return
    payload = bytearray(encode_trace(trace))
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
        trace.instructions, len(trace)
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
    assert [ins.deps for ins in view.instructions()] == [
        ins.deps for ins in instructions
    ]


def check_head_and_slice_consistency(seed: int) -> None:
    """head()/run_slice() agree with the object trace's own slicing."""
    rng = random.Random(seed)
    trace = random_trace(seed)
    view = trace.columnar()
    count = rng.randint(0, len(trace))
    head = view.head(count)
    assert len(head) == count
    assert head.to_bytes() == encode_trace(trace.head(count))
    start = rng.randint(0, len(trace))
    stop = rng.randint(start, len(trace))
    window = view.run_slice(start, stop)
    assert len(window) == stop - start
    seqs, total, capacity, arrays = window.columnar_pipeline_plan()
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
        assert view.instructions() == []
        assert view.pipeline_arrays()[0] == b""
        assert view.head(3).to_bytes() == view.to_bytes()

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
        view = ColumnarTrace.from_rtrc_bytes(encode_trace(trace))
        assert list(view.addresses) == [(0xBEEF << 32) | 0x1234, (1 << 47) - 64]
        assert view.to_bytes() == encode_trace(trace)

    def test_from_rtrc_bytes_accepts_buffer_views(self):
        trace = random_trace(5)
        payload = encode_trace(trace)
        for data in (bytearray(payload), memoryview(payload)):
            view = ColumnarTrace.from_rtrc_bytes(data)
            assert view.to_bytes() == payload

    def test_whole_view_drives_the_pipeline(self):
        # A full ColumnarTrace (not a run_slice window) is itself a valid
        # pipeline input, equal to the window covering it.
        trace = random_trace(23)
        cycles = []
        for source in (trace.columnar(), trace.columnar().run_slice(0, len(trace))):
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
            assert view.fingerprint() == trace_fingerprint(trace)

    def test_load_error_names_the_file(self, tmp_path):
        path = tmp_path / "bad.rtrc"
        path.write_bytes(b"RTRC but not really")
        with pytest.raises(TraceFormatError, match="bad.rtrc"):
            ColumnarTrace.load(path)

    def test_deps_pool_is_zero_copy_on_le_hosts(self):
        import sys

        trace = random_trace(11)
        payload = encode_trace(trace)
        view = ColumnarTrace.from_rtrc_bytes(payload)
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


class TestPlainListAdapter:
    """Plain Instruction lists are adapted once, at entry, without writing
    to the caller's objects."""

    @staticmethod
    def instructions(seed: int):
        """Fresh Instruction objects (``seq`` still -1) for ``random_trace``."""
        return [
            Instruction(kind=i.kind, address=i.address, size=i.size, deps=i.deps)
            for i in random_trace(seed)
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
