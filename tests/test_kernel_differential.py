"""Differential net: specialized simulation kernels against the generic loop.

The specialized kernels (PR 8) are the simulator's default way of running a
configuration; the generic interpreted loop stays behind
``RunOptions(kernel="generic")`` precisely so these tests can hold the two to
*bit-identical* results — every ``StatCounters`` counter and every
per-structure energy value, not just cycles.  Coverage spans the fig4-mini
grid (all five Fig. 4 configurations), pipeline-level runs, randomized
seeded synthetic profiles, the adversarial ``STRESS`` profiles
(``tlbthrash``/``depchase``/``mlpladder``), whose absolute results are
additionally pinned to ``tests/golden/stress_profiles.json``,
hand-built traces aimed at the kernels' issue stage and memory path, and
addresses outside the layout.  Wherever a test builds
the pipelines itself it also compares each pipeline's
``fast_forwarded_cycles``: a kernel must jump the clock exactly when the
generic loop does.

A budget test counts the model calls a kernel makes per access: only page
walks leave it, also when way hints are forced wrong.  Shape tests hold
every generated ``kernel_run`` to the code its shape runs, and one kernel
per shape runs every value of the numbers it reads at run time.

The net also locks down the fallback contract: collector runs take the
generic path with results unchanged, a kernel compiled for a different configuration is
rejected by its runtime guards (raising before it touches any state, never
running the generic loop in its place), and the selection is validated.

Regenerating the stress golden file is a deliberate act::

    PYTHONPATH=src python tests/golden/regenerate.py
"""

from __future__ import annotations

import ast
import json
import linecache
import random
from collections import Counter
from dataclasses import replace
from pathlib import Path
from typing import NamedTuple

import pytest

from repro.api import RunOptions
from repro.cache.l1_cache import L1DataCache
from repro.campaign.spec import campaign_preset
from repro.core.way_table import WayTableHierarchy
from repro.core.wdu import WayDeterminationUnit
from repro.cpu.instruction import compute, load, store
from repro.cpu.pipeline import OutOfOrderPipeline
from repro.obs import RunCollector
from repro.sim import kernels
from repro.core.arbitration import MERGE_GRANULARITIES
from repro.sim.config import (
    CacheParameters,
    InterfaceKind,
    MalecParameters,
    PipelineParameters,
    SimulationConfig,
    TLBParameters,
)
from repro.sim.kernels import (
    compile_kernel,
    content_hash,
    kernel_source,
    prewarm,
    resolve_kernel,
)
from repro.sim.simulator import Simulator, run_configuration
from repro.dse import space_preset
from repro.memory.address import AddressLayout
from repro.workloads.columnar import as_columnar
from repro.workloads.profiles import BenchmarkProfile, StreamKind, StreamSpec
from repro.workloads.suites import STRESS_BENCHMARKS, benchmark_profile
from repro.workloads.synthetic import generate_trace
from repro.workloads.trace import MemoryTrace
from repro.tlb.page_table import PageTable
from repro.tlb.tlb import TLB, TLBHierarchy

STRESS_GOLDEN_PATH = Path(__file__).parent / "golden" / "stress_profiles.json"

#: the fig4-mini benchmark picks (one per suite; mirrors the campaign preset)
FIG4_MINI_BENCHMARKS = ("gzip", "swim", "djpeg")

FIG4_CONFIGS = SimulationConfig.figure4_suite()


def trace_for(name: str, instructions: int = 1200):
    return generate_trace(benchmark_profile(name), instructions=instructions)


def assert_results_identical(specialized, oracle, label: str) -> None:
    """Full-payload equality with a field-first report of what drifted."""
    for field in ("cycles", "instructions", "loads", "stores"):
        assert getattr(specialized, field) == getattr(oracle, field), (label, field)
    assert specialized.stats == oracle.stats, label
    assert list(specialized.stats) == list(oracle.stats), (label, "stats key order")
    assert specialized.energy == oracle.energy, label


def run_with_kernel(config, trace, kernel, warmup=0.0):
    """One fresh simulation with the kernel pinned; returns (result, simulator).

    Uses :class:`Simulator` directly (not ``run_configuration``) so callers
    can also assert on ``kernel_used`` — a specialized run that silently
    fell back would make the differential vacuous.
    """
    simulator = Simulator(config)
    result = simulator.run(
        trace, warmup_fraction=warmup, options=RunOptions(kernel=kernel)
    )
    return result, simulator


class PipelineRun(NamedTuple):
    result: object
    stats: dict
    energy: object
    #: ``fast_forwarded_cycles`` of the warm-up pipeline (if any), then the
    #: measured one: the kernels must jump the clock exactly when the
    #: generic loop does
    fast_forwards: list
    pipeline: OutOfOrderPipeline


def run_pipeline_kernel(config, trace, kernel, warmup=0.0) -> PipelineRun:
    """One fresh simulation with the pipelines built here, kernel pinned.

    The pipelines are constructed directly (as the simulator does), so the
    test can read each one's ``fast_forwarded_cycles`` and the measured
    pipeline's own ``kernel_used`` flag.
    """
    simulator = Simulator(config)
    params = simulator.config.pipeline
    entry = compile_kernel(config).entry if kernel == "specialized" else None
    view = as_columnar(trace)
    view.precompute_decompositions(config.cache.layout)
    total = len(view)
    warmup_count = int(total * warmup)
    fast_forwards = []
    if warmup_count:
        warmup_pipeline = OutOfOrderPipeline(
            simulator.interface,
            params=params,
            stats=simulator.stats,
            kernel=entry,
        )
        warmup_pipeline.run(view.run_slice(0, warmup_count))
        fast_forwards.append(warmup_pipeline.fast_forwarded_cycles)
        simulator.stats.clear()
    pipeline = OutOfOrderPipeline(
        simulator.interface,
        params=params,
        stats=simulator.stats,
        kernel=entry,
    )
    result = pipeline.run(view.run_slice(warmup_count, total))
    fast_forwards.append(pipeline.fast_forwarded_cycles)
    energy = simulator.accountant.report(simulator.stats, result.cycles)
    return PipelineRun(result, simulator.stats.as_dict(), energy, fast_forwards, pipeline)


def assert_pipelines_identical(config, trace, warmup, label: str) -> None:
    """Kernel against generic loop: results, stats, energy and clock jumps."""
    specialized = run_pipeline_kernel(config, trace, "specialized", warmup)
    assert specialized.pipeline.kernel_used, label
    oracle = run_pipeline_kernel(config, trace, "generic", warmup)
    assert specialized.result == oracle.result, label
    assert specialized.stats == oracle.stats, label
    assert list(specialized.stats) == list(oracle.stats), (label, "stats key order")
    assert specialized.energy == oracle.energy, label
    assert specialized.fast_forwards == oracle.fast_forwards, label


class TestFig4GridIdentity:
    @pytest.mark.parametrize("config", FIG4_CONFIGS, ids=lambda c: c.name)
    @pytest.mark.parametrize("bench", FIG4_MINI_BENCHMARKS)
    def test_fig4_mini_grid_bit_identical(self, config, bench):
        trace = trace_for(bench)
        specialized, simulator = run_with_kernel(
            config, trace, "specialized", warmup=0.3
        )
        assert simulator.kernel_used, f"{bench}/{config.name} fell back"
        oracle = run_configuration(
            config, trace, warmup_fraction=0.3, options=RunOptions(kernel="generic")
        )
        assert_results_identical(specialized, oracle, f"{bench}/{config.name}")


class TestPipelineIdentity:
    @pytest.mark.parametrize("bench", STRESS_BENCHMARKS)
    def test_stress_profiles_identical(self, bench):
        assert_pipelines_identical(SimulationConfig.malec(), trace_for(bench), 0.3, bench)

    def test_fig4_pick_identical(self):
        assert_pipelines_identical(SimulationConfig.base_2ld1st(), trace_for("gzip"), 0.0, "gzip")

    @pytest.mark.parametrize("config", FIG4_CONFIGS, ids=lambda c: c.name)
    @pytest.mark.parametrize("bench", FIG4_MINI_BENCHMARKS + tuple(STRESS_BENCHMARKS))
    def test_warmed_pipelines_identical(self, config, bench):
        # The fig4-mini grid and the STRESS profiles under every Fig. 4
        # configuration, warm-up and measured pipeline alike.
        assert_pipelines_identical(config, trace_for(bench), 0.3, f"{bench}/{config.name}")


def _malec(**options) -> SimulationConfig:
    return SimulationConfig.malec(malec_options=replace(MalecParameters(), **options))


def _narrow(config: SimulationConfig, **fields) -> SimulationConfig:
    """``config`` on a two-wide, 32-entry-ROB core with the given fields."""
    pipeline = PipelineParameters(rob_entries=32, fetch_width=2, issue_width=2, commit_width=2)
    return replace(config, pipeline=pipeline, **fields)


TINY_TLBS = TLBParameters(utlb_entries=2, tlb_entries=4)
FREE_WALK_TLBS = TLBParameters(utlb_entries=1, tlb_entries=2, walk_latency=0)

#: option values and machine shapes the kernels are specialized on that the
#: five Fig. 4 configurations never reach
SPECIALIZED_SHAPES = {
    "malec-wdu": _malec(way_determination="wdu"),
    "malec-no-way-determination": _malec(way_determination="none"),
    "malec-line-merging": _malec(merge_granularity="line"),
    "malec-subblock-merging": _malec(merge_granularity="subblock"),
    "malec-no-merging": _malec(merge_granularity="none"),
    "malec-one-result-bus": _malec(result_buses=1),
    "malec-unrestricted-allocation": _malec(restrict_way_allocation=False),
    "malec-wdu-subblock-one-bus": _malec(
        way_determination="wdu",
        merge_granularity="subblock",
        result_buses=1,
        input_buffer_capacity=1,
    ),
    "malec-dram-90": replace(SimulationConfig.malec(), cache=CacheParameters(dram_latency=90)),
    "base1ldst-dram-20-mb-8": replace(
        SimulationConfig.base_1ldst(), cache=CacheParameters(dram_latency=20), mb_entries=8
    ),
    "base2ld1st-mb-1": replace(SimulationConfig.base_2ld1st(), mb_entries=1),
    "malec-narrow-sb-4-mb-2": _narrow(SimulationConfig.malec(), sb_entries=4, mb_entries=2),
    "base2ld1st-narrow-sb-2": _narrow(SimulationConfig.base_2ld1st(), sb_entries=2),
    # tiny TLBs churn both levels, their way-table transfers and, at a zero
    # walk latency, give a uTLB miss the latency of a hit
    "malec-tlbs-2-4": replace(SimulationConfig.malec(), tlb=TINY_TLBS),
    "base1ldst-tlbs-2-4": replace(SimulationConfig.base_1ldst(), tlb=TINY_TLBS),
    "malec-wdu-tlbs-2-4": replace(_malec(way_determination="wdu"), tlb=TINY_TLBS),
    "malec-tlbs-1-2-walk-0": replace(SimulationConfig.malec(), tlb=FREE_WALK_TLBS),
    "base2ld1st-tlbs-1-2-walk-0": replace(SimulationConfig.base_2ld1st(), tlb=FREE_WALK_TLBS),
    "malec-no-feedback": _malec(enable_feedback_update=False),
}


class TestSpecializedShapes:
    @pytest.mark.parametrize("shape", sorted(SPECIALIZED_SHAPES))
    @pytest.mark.parametrize("bench", ("gzip", "mlpladder"))
    def test_shape_identical(self, shape, bench):
        config = SPECIALIZED_SHAPES[shape]
        assert_pipelines_identical(config, trace_for(bench), 0.3, f"{bench}/{shape}")


def random_shape(seed: int) -> SimulationConfig:
    """A seeded configuration shape: interface kind, core widths, buffer
    depths, latencies, TLB sizes and every MALEC option, each drawn over
    the range the kernels are specialized on.  The WDU size comes from a
    stream of its own, so a seed keeps the shape it had before the size
    was drawn; WDUs of one or two entries evict and invalidate all the
    time."""
    rng = random.Random(seed)
    wdu_rng = random.Random(seed ^ 0x3D0)
    return SimulationConfig(
        name=f"shape{seed}",
        interface=rng.choice(list(InterfaceKind)),
        cache=CacheParameters(
            l1_hit_latency=rng.randint(1, 3),
            l2_latency=rng.randint(6, 20),
            dram_latency=rng.randint(20, 120),
        ),
        tlb=TLBParameters(
            utlb_entries=rng.choice((1, 2, 4, 16)),
            tlb_entries=rng.choice((2, 4, 64)),
            walk_latency=rng.choice((0, 30)),
        ),
        pipeline=PipelineParameters(
            rob_entries=rng.randint(8, 168),
            fetch_width=rng.randint(1, 6),
            issue_width=rng.randint(1, 8),
            commit_width=rng.randint(1, 6),
        ),
        malec_options=MalecParameters(
            way_determination=rng.choice(("wt", "wdu", "none")),
            enable_feedback_update=rng.random() < 0.5,
            merge_granularity=rng.choice(MERGE_GRANULARITIES),
            result_buses=rng.randint(1, 4),
            input_buffer_capacity=rng.choice((1, 2, 4)),
            merge_window=rng.randint(0, 4),
            restrict_way_allocation=rng.random() < 0.5,
            wdu_entries=wdu_rng.choice((1, 2, 8, 16, 32)),
        ),
        lq_entries=rng.randint(4, 40),
        sb_entries=rng.randint(2, 24),
        mb_entries=rng.randint(1, 8),
    )


def pytest_generate_tests(metafunc):
    if "shape_seed" in metafunc.fixturenames:
        seeds = range(metafunc.config.getoption("shape_fuzz"))
        metafunc.parametrize("shape_seed", seeds)


class TestShapeFuzz:
    """Seeded random shapes, as many as ``--shape-fuzz N`` asks for (the
    tier-1 default is small; CI's kernel-differential job runs more)."""

    def test_random_shape_identical(self, shape_seed):
        rng = random.Random(shape_seed ^ 0x5EED)
        bench = rng.choice(("gzip", "mcf", "mlpladder", "swim"))
        warmup = rng.choice((0.0, 0.3))
        config = random_shape(shape_seed)
        assert_pipelines_identical(
            config, trace_for(bench, 600), warmup, f"{bench}/{config.name}: {config}"
        )


# ----------------------------------------------------------------------
# Hand-built traces for the kernels' issue stage, which parks refused
# stores, stops re-examining loads once one is refused in a cycle, and
# rebuilds the generic loop's clock-jump flags (see
# repro.sim.kernels.generator._issue_stage).  Fresh 1 MByte-spaced pages
# miss the TLBs, the L1 and the L2, so loads on them wait for DRAM.
# ----------------------------------------------------------------------
def _far(index: int) -> int:
    return 0x0100_0000 + index * (1 << 20)


def head_store_behind_dram_miss() -> MemoryTrace:
    """A head store whose address waits on a DRAM miss, with 32 younger
    independent stores ready behind it: all of them park, and the clock
    jumps across the miss while they wait."""
    instructions = []
    for block in range(3):
        instructions.append(load(_far(block)))
        instructions.append(store(0x8000 + block * 64, deps=(1,)))
        for index in range(32):
            instructions.append(store(0x9000 + (block * 32 + index) * 24))
        instructions.append(compute(deps=(1,)))
    return MemoryTrace(name="head-store-behind-miss", instructions=instructions)


def store_buffer_fills_while_draining() -> MemoryTrace:
    """Stores that fill the 24-entry store buffer while a DRAM miss holds
    the ROB head, then drain one per cycle once it commits, while a second
    burst keeps the head store refused on a full buffer."""
    instructions = []
    for burst in range(2):
        instructions.append(load(_far(8 + burst)))
        for index in range(40):
            instructions.append(store(0x20000 + (burst * 40 + index) * 40))
            if index % 8 == 7:
                instructions.append(compute(deps=(1,)))
    instructions.append(load(0x20000, deps=(3,)))
    return MemoryTrace(name="store-buffer-fills", instructions=instructions)


def loads_starved_behind_one_slot() -> MemoryTrace:
    """Loads starved behind Base1ldst's single flexible slot, with more than
    eight ready computes younger than them.

    Sixteen lines 8 KByte apart share an L1 bank and, in about half the
    cases, a set (one set-index bit comes from the physical page), so the
    first is pushed out to the L2.  A load of it (an L2 hit) wakes 24 loads
    and 12 computes at once.  The woken loads interleave with starved ones,
    so a refused woken load is younger than a skipped starved one, and the
    width runs out with starved loads left that are younger than the last
    issued compute.
    """
    instructions = [load(0x30000 + index * 8192) for index in range(16)]
    producer = len(instructions)
    instructions.append(load(0x30008))
    for index in range(24):
        # a starved independent load, then one waiting on the producer
        instructions.append(load(0x40000 + index * 64))
        instructions.append(load(0x50000 + index * 64, deps=(len(instructions) - producer,)))
    for _ in range(12):
        instructions.append(compute(deps=(len(instructions) - producer,)))
    for index in range(6):
        instructions.append(load(0x60000 + index * 64))
    for _ in range(10):
        instructions.append(compute(deps=(1,)))
    return MemoryTrace(name="loads-starved", instructions=instructions)


def consecutive_ready_stores() -> MemoryTrace:
    """Groups of consecutive stores parked behind a head store that waits on
    a load: when the head issues, the next parked store becomes the merge's
    candidate, and MALEC's two flexible slots issue both in one cycle."""
    instructions = []
    for group in range(6):
        instructions.append(load(0x70000 + group * 4096))
        instructions.append(store(0x78000 + group * 64, deps=(1,)))
        for index in range(3):
            instructions.append(store(0x7C000 + (group * 3 + index) * 16))
        for _ in range(4):
            instructions.append(compute(deps=(1,)))
    return MemoryTrace(name="consecutive-stores", instructions=instructions)


def narrow_issue_behind_parked_store() -> MemoryTrace:
    """For a two-wide issue stage: two loads use up the width in a cycle
    whose only leftover is a parked store older than them, so the clock may
    jump (``deferred_blocking`` stays clear), while the head store waits on
    a DRAM miss."""
    instructions = []
    for group in range(3):
        instructions += [
            load(_far(24 + group)),
            load(0xA0000 + group * 64),
            store(0xB0000 + group * 64, deps=(2,)),
            store(0xC0000 + group * 64),
            load(0xD0000 + group * 64),
            load(0xE0000 + group * 64),
        ]
    return MemoryTrace(name="narrow-issue", instructions=instructions)


#: case -> (trace builder, issue width; None keeps the Fig. 4 pipeline)
ISSUE_STAGE_CASES = {
    "head-store-behind-miss": (head_store_behind_dram_miss, None),
    "store-buffer-fills": (store_buffer_fills_while_draining, None),
    "loads-starved": (loads_starved_behind_one_slot, None),
    "consecutive-stores": (consecutive_ready_stores, None),
    "narrow-issue": (narrow_issue_behind_parked_store, 2),
}


class TestIssueStageCases:
    @pytest.mark.parametrize("config", FIG4_CONFIGS, ids=lambda c: c.name)
    @pytest.mark.parametrize("case", sorted(ISSUE_STAGE_CASES))
    def test_hand_built_case_identical(self, case, config):
        build, issue_width = ISSUE_STAGE_CASES[case]
        if issue_width is not None:
            config = replace(
                config, pipeline=replace(config.pipeline, issue_width=issue_width)
            )
        assert_pipelines_identical(config, build(), 0.0, f"{case}/{config.name}")


# ----------------------------------------------------------------------
# Hand-built traces for memory-path events the synthetic profiles never
# produce: loads that cross a line, and a dirty L1 line whose write-back
# misses the L2.
# ----------------------------------------------------------------------
def line_crossing_loads() -> MemoryTrace:
    """Loads spanning two lines whose overlapping store touches only the
    second, and 200-byte loads whose overlapping store sits in a middle
    line: the store-buffer scan must find both, although neither store
    touches the load's first line."""
    instructions = []
    for index in range(24):
        base = 0x0040_0000 + index * 256
        instructions += [
            store(base + 64, size=4),
            load(base + 60, size=8),
            store(base + 198, size=2),
            load(base + 8, size=200),
        ]
    return MemoryTrace(name="line-crossing-loads", instructions=instructions)


def writeback_misses_the_l2() -> MemoryTrace:
    """A dirty L1 line that outlives its L2 copy, so its write-back misses
    the L2 and fills it dirty, and a later L2 eviction writes it to DRAM.

    Frames are allocated on first touch, and the frame permutation's
    multiplier is odd, so pages first touched 16 apart share their frame
    number mod 16 and their line 0 shares an L2 set.  Serialized loads
    touch one new page at a time: fifteen on line 1, then one on line 0
    that lands in the hot line's L2 set.  The hot line, stored to and
    re-read every round, stays in the L1 while sixteen such lines push it
    out of the L2; once the re-reads stop, it leaves the L1 dirty.
    """
    hot = 0x0080_0000
    # The four younger stores push the hot line's out of the merge buffer.
    instructions = [load(hot), store(hot)]
    instructions += [store(hot + 64 * line) for line in (2, 3, 4, 5)]
    page = 0x0100_0000
    for round_ in range(48):
        for _ in range(15):
            instructions.append(load(page + 64, deps=(1,)))
            page += 4096
        if round_ < 20:
            instructions.append(load(hot, deps=(1,)))
        instructions.append(load(page, deps=(1,)))
        page += 4096
    return MemoryTrace(name="writeback-misses-the-l2", instructions=instructions)


MEMORY_PATH_CASES = {
    "line-crossing-loads": line_crossing_loads,
    "writeback-misses-the-l2": writeback_misses_the_l2,
}


class TestMemoryPathCases:
    @pytest.mark.parametrize("config", FIG4_CONFIGS, ids=lambda c: c.name)
    @pytest.mark.parametrize("case", sorted(MEMORY_PATH_CASES))
    def test_hand_built_case_identical(self, case, config):
        assert_pipelines_identical(
            config, MEMORY_PATH_CASES[case](), 0.0, f"{case}/{config.name}"
        )

    def test_writeback_reaches_dram(self):
        # The case is only a net for the L2 write-back miss while it still
        # produces one: the dirty line must come back out of the L2.
        run = run_pipeline_kernel(FIG4_CONFIGS[0], writeback_misses_the_l2(), "generic")
        assert run.stats["l1.writeback"] >= 1
        assert run.stats["dram.write"] >= 1


# ----------------------------------------------------------------------
# Wrong way hints.  Way tables and WDUs keep every way they give valid or
# unknown (Sec. V), so no trace drives an access with a wrong hint.  These
# cases force them: a first run warms the tables, every way they know is
# then rewritten to the next way, and a second run of the trace takes its
# hints from them, loads and MBE writes alike.
# ----------------------------------------------------------------------
def mislead_way_hints(simulator: Simulator) -> None:
    """Rewrite every way the simulator's way tables or WDU know to the next
    way (modulo the associativity)."""
    interface = simulator.interface
    ways = simulator.config.cache.layout.l1_associativity
    if interface.way_tables is not None:
        for codes in (interface.way_tables.uwt, interface.way_tables.wt):
            # a code is the way plus one, 0 unknown
            codes[:] = bytes(code % ways + 1 if code else 0 for code in codes)
    else:
        table = interface.wdu._table
        for line, way in list(table.items()):
            table[line] = (way + 1) % ways


#: MALEC with way tables, and with a WDU that remembers the first run's lines
MISLED_CONFIGS = (
    SimulationConfig.malec(),
    _malec(way_determination="wdu", wdu_entries=256).with_name("MALEC_WDU256"),
)


def misled_run(simulator: Simulator, trace, kernel: str):
    """The second of two runs of ``trace`` on ``simulator``, around
    :func:`mislead_way_hints`."""
    options = RunOptions(kernel=kernel)
    simulator.run(trace, options=options)
    mislead_way_hints(simulator)
    return simulator.run(trace, options=options)


class TestWrongWayHints:
    @pytest.mark.parametrize("config", MISLED_CONFIGS, ids=lambda c: c.name)
    def test_wrong_hints_identical(self, config):
        trace = trace_for("gzip")
        simulator = Simulator(config)
        specialized = misled_run(simulator, trace, "specialized")
        assert simulator.kernel_used
        oracle = misled_run(Simulator(config), trace, "generic")
        assert_results_identical(specialized, oracle, config.name)
        # A load with a wrong hint has read the hinted way's data array, an
        # L1 reduced access that MALEC's way accounting does not count as one;
        # the rest of the wrong hints are MBE writes'.
        stats = specialized.stats
        wrong_loads = stats["l1.reduced_access"] - stats.get("malec.reduced_access", 0.0)
        assert 0 < wrong_loads < stats["l1.way_hint_wrong"]


# ----------------------------------------------------------------------
# Addresses outside the layout.  The kernels keep the range check of the
# layout methods they inline as ``address > max_address`` alone, because a
# trace address is never negative: the columnar address column is unsigned,
# so the lift refuses a negative one before either kernel runs.
# ----------------------------------------------------------------------
def out_of_range_access(kind: str, address: int) -> MemoryTrace:
    access = load if kind == "load" else store
    instructions = [load(0x1000), store(0x2000), compute(), access(address), load(0x3000)]
    return MemoryTrace(name=f"out-of-range-{kind}", instructions=instructions)


def error_without_warm(config, trace, kernel) -> tuple:
    """The error one pipeline run raises.  The pipeline is built directly and
    the trace's range check (``precompute_decompositions``) skipped, which
    would refuse the address first."""
    simulator = Simulator(config)
    entry = compile_kernel(config).entry if kernel == "specialized" else None
    pipeline = OutOfOrderPipeline(
        simulator.interface, params=simulator.config.pipeline, stats=simulator.stats, kernel=entry
    )
    with pytest.raises(Exception) as caught:
        pipeline.run(trace)
    return type(caught.value), str(caught.value)


class TestOutOfRangeAddresses:
    @pytest.mark.parametrize("config", FIG4_CONFIGS, ids=lambda c: c.name)
    @pytest.mark.parametrize("kind", ("load", "store"))
    @pytest.mark.parametrize("address", (-64, 1 << 40), ids=("negative", "past-max"))
    def test_same_error_from_both_kernels(self, address, kind, config):
        trace = out_of_range_access(kind, address)
        specialized = error_without_warm(config, trace, "specialized")
        assert specialized == error_without_warm(config, trace, "generic")
        if address > 0:
            assert specialized[0] is ValueError and "outside" in specialized[1]

    def test_address_column_is_unsigned(self):
        assert as_columnar(out_of_range_access("load", 64)).addresses.typecode == "Q"


def random_profile(seed: int) -> BenchmarkProfile:
    """A randomized-but-seeded profile drawing from every stream kind."""
    rng = random.Random(seed)
    kinds = list(StreamKind)
    streams = tuple(
        StreamSpec(
            kind=rng.choice(kinds),
            weight=rng.uniform(0.3, 1.5),
            footprint_pages=rng.choice((2, 6, 40, 400, 2000)),
            stride_bytes=rng.choice((4, 8, 16, 64, 136)),
            page_stay_probability=rng.uniform(0.1, 0.95),
            store_fraction=rng.uniform(0.0, 0.8),
        )
        for _ in range(rng.randint(1, 4))
    )
    return BenchmarkProfile(
        name=f"kfuzz{seed}",
        suite="SYN",
        memory_fraction=rng.uniform(0.25, 0.55),
        streams=streams,
        stream_switch_probability=rng.uniform(0.1, 0.7),
        pointer_chase_dependency=rng.uniform(0.0, 0.9),
        load_use_dependency=rng.uniform(0.1, 0.7),
        seed=seed * 977 + 13,
    )


class TestRandomizedProfiles:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_profiles_bit_identical(self, seed):
        rng = random.Random(seed ^ 0x5EED)
        trace = generate_trace(random_profile(seed), instructions=700)
        config = FIG4_CONFIGS[rng.randrange(len(FIG4_CONFIGS))]
        warmup = rng.choice((0.0, 0.25))
        specialized, simulator = run_with_kernel(
            config, trace, "specialized", warmup=warmup
        )
        assert simulator.kernel_used, f"kfuzz{seed}/{config.name}"
        oracle = run_configuration(
            config, trace, warmup_fraction=warmup, options=RunOptions(kernel="generic")
        )
        assert_results_identical(specialized, oracle, f"kfuzz{seed}/{config.name}")


def stress_records(kernel: str) -> dict:
    """The golden payload's records, computed live with ``kernel``."""
    records = {}
    for bench in STRESS_BENCHMARKS:
        trace = trace_for(bench)
        for config in FIG4_CONFIGS:
            result, simulator = run_with_kernel(config, trace, kernel, warmup=0.3)
            if kernel == "specialized":
                assert simulator.kernel_used, f"{bench}/{config.name}"
            records[f"{bench}/{config.name}"] = {
                "cycles": result.cycles,
                "instructions": result.instructions,
                "loads": result.loads,
                "stores": result.stores,
                "stats": result.stats,
                "energy": {
                    name: {
                        "dynamic_pj": item.dynamic_pj,
                        "leakage_pj": item.leakage_pj,
                    }
                    for name, item in sorted(result.energy.structures.items())
                },
            }
    return records


class TestStressGolden:
    @pytest.fixture(scope="class")
    def golden(self) -> dict:
        return json.loads(STRESS_GOLDEN_PATH.read_text())

    @pytest.mark.parametrize("kernel", ("specialized", "generic"))
    def test_stress_results_match_golden(self, golden, kernel):
        # Both kernels must land on the recorded results — this pins the
        # STRESS profiles' absolute behaviour *and* re-checks the
        # differential property through an independently stored oracle
        # (the golden records were first produced on the retired object
        # frontend).
        fresh = stress_records(kernel)
        assert set(fresh) == set(golden["records"])
        for key, golden_record in golden["records"].items():
            record = fresh[key]
            for field in ("cycles", "instructions", "loads", "stores"):
                assert record[field] == golden_record[field], (key, field, kernel)
            assert record["stats"] == golden_record["stats"], (key, kernel)
            assert record["energy"] == golden_record["energy"], (key, kernel)

    def test_golden_covers_mlpladder(self, golden):
        assert "mlpladder" in STRESS_BENCHMARKS
        assert any(key.startswith("mlpladder/") for key in golden["records"])


class TestModelCounterPatterns:
    def test_kernels_count_through_the_model_patterns(self):
        # The kernels flush their batched counters through the model's own
        # _combo_* tuples: a bank whose conventional read counts l1.ctrl
        # twice must count it twice under either kernel.
        trace = trace_for("gzip")
        config = SimulationConfig.malec()
        results = {}
        for kernel in ("specialized", "generic"):
            simulator = Simulator(config)
            for bank in simulator.l1.banks:
                bank._combo_conv_read = tuple(
                    (name, 2 if name == "l1.ctrl" else times)
                    for name, times in bank._combo_conv_read
                )
            results[kernel] = simulator.run(trace, options=RunOptions(kernel=kernel))
        assert_results_identical(results["specialized"], results["generic"], "l1.ctrl x2")
        unchanged = run_configuration(config, trace)
        assert results["generic"].stats["l1.ctrl"] > unchanged.stats["l1.ctrl"]


#: every model method a kernel could call per access
MODEL_METHODS = {
    TLBHierarchy: ("translate_pair", "translate_page_pair", "walk_page"),
    TLB: ("lookup", "reverse_lookup", "insert"),
    L1DataCache: ("load_parts", "store_parts", "_notify_fill", "_notify_evict"),
    WayTableHierarchy: (
        "predict_page",
        "feedback_conventional_hit",
        "on_line_fill",
        "on_line_evict",
    ),
    WayDeterminationUnit: ("predict", "record", "on_line_fill", "on_line_evict"),
}


def kernel_model_calls(config, trace, monkeypatch, mislead=False):
    """The model calls a specialized run makes from its kernel, by method,
    and the page walks it ran.

    Only outermost calls count: the TLB fills inside ``walk_page`` are the
    model's own.  The interface's ``finalize``, the end-of-run drain, runs
    the model and is not counted.  With ``mislead`` the trace runs twice,
    around :func:`mislead_way_hints`, and both runs count.
    """
    calls = Counter()
    state = {"depth": 0, "finalizing": False, "walks": 0}

    def counted(name, method):
        def wrapper(*args, **kwargs):
            if state["depth"] == 0 and not state["finalizing"]:
                calls[name] += 1
            state["depth"] += 1
            try:
                return method(*args, **kwargs)
            finally:
                state["depth"] -= 1

        return wrapper

    for cls, names in MODEL_METHODS.items():
        for name in names:
            monkeypatch.setattr(cls, name, counted(name, getattr(cls, name)))
    translate_page = PageTable.translate_page

    def walk(self, virtual_page):
        if not state["finalizing"]:
            state["walks"] += 1
        return translate_page(self, virtual_page)

    monkeypatch.setattr(PageTable, "translate_page", walk)
    simulator = Simulator(config)
    finalize = simulator.interface.finalize

    def finalize_uncounted(cycle):
        state["finalizing"] = True
        try:
            finalize(cycle)
        finally:
            state["finalizing"] = False

    simulator.interface.finalize = finalize_uncounted
    if mislead:
        result = misled_run(simulator, trace, "specialized")
    else:
        result = simulator.run(trace, options=RunOptions(kernel="specialized"))
    assert simulator.kernel_used
    return calls, state["walks"], result


#: an eight-entry WDU: its predictions, LRU evictions and invalidations
SMALL_WDU = _malec(way_determination="wdu", wdu_entries=8).with_name("MALEC_WDU8")


class TestDelegationBudget:
    """Per access, a kernel calls the model only to walk the page table
    (``TLBHierarchy.walk_page``).  The cells are fig4-mini's at its
    instruction budget, under the Fig. 4 configurations and a WDU, and
    ``tlbthrash``, which drives the paths taken inline: uTLB refills from
    the TLB, L1 evictions, store misses.  Loads and MBE writes whose way
    hints were forced wrong (:class:`TestWrongWayHints`) stay inline too."""

    @pytest.mark.parametrize("config", FIG4_CONFIGS + [SMALL_WDU], ids=lambda c: c.name)
    @pytest.mark.parametrize("bench", FIG4_MINI_BENCHMARKS + ("tlbthrash",))
    def test_only_page_walks_leave_the_kernel(self, config, bench, monkeypatch):
        trace = trace_for(bench, campaign_preset("fig4-mini").instructions)
        calls, walks, result = kernel_model_calls(config, trace, monkeypatch)
        stats = result.stats
        assert walks and calls == Counter(walk_page=walks)
        if bench == "tlbthrash":
            assert stats["tlb.hit"] and stats["l1.eviction"] and stats["l1.store_miss"]
            if config is SMALL_WDU:
                assert stats["wdu.eviction"] and stats["wdu.invalidate"]

    @pytest.mark.parametrize("config", MISLED_CONFIGS, ids=lambda c: c.name)
    def test_wrong_way_hints_stay_in_the_kernel(self, config, monkeypatch):
        calls, walks, result = kernel_model_calls(
            config, trace_for("gzip"), monkeypatch, mislead=True
        )
        assert result.stats["l1.way_hint_wrong"]
        assert walks and calls == Counter(walk_page=walks)


#: Fig. 4's configurations and MALEC's two other way determinations
SHAPE_CONFIGS = {config.name: config for config in FIG4_CONFIGS}
SHAPE_CONFIGS["MALEC-wdu"] = SPECIALIZED_SHAPES["malec-wdu"]
SHAPE_CONFIGS["MALEC-no-way-determination"] = SPECIALIZED_SHAPES["malec-no-way-determination"]

#: every named shape: Fig. 4's, MALEC's way determinations and the specialized ones
NAMED_SHAPES = {**SHAPE_CONFIGS, **SPECIALIZED_SHAPES}

#: the most lines a generated source may have, by interface kind
LINE_BUDGETS = {"Base1ldst": 750, "Base2ld1st": 760, "MALEC": 990}


def emitted_waste(config: SimulationConfig) -> dict:
    """What the generated ``kernel_run`` of ``config`` emits for nothing: the
    names it stores and never loads (``_``-prefixed placeholders aside), and
    the accumulators its prologue zeroes that its loop never counts."""
    tree = ast.parse(kernel_source(config))
    run = next(node for node in tree.body if getattr(node, "name", "") == "kernel_run")
    names = [node for node in ast.walk(run) if isinstance(node, ast.Name)]
    loaded = {node.id for node in names if isinstance(node.ctx, ast.Load)}
    stored = {node.id for node in names if not isinstance(node.ctx, ast.Load)}
    zeroed = {
        target.id
        for node in run.body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id.startswith("acc_")
    }
    loop = next(node for node in run.body if isinstance(node, ast.While))
    counted = {
        node.target.id
        for node in ast.walk(loop)
        if isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name)
    }
    return {
        "stored, never loaded": sorted(n for n in stored - loaded if not n.startswith("_")),
        "zeroed, never counted": sorted(zeroed - counted),
    }


NO_WASTE = {"stored, never loaded": [], "zeroed, never counted": []}


class TestKernelShape:
    """Each cold memory path (the uTLB, L1 and L2 misses) is emitted once per
    kernel, as a function of the generated module, so a fix to one is made
    once; the hot loop binds no cell variable, which would slow every hot
    access to it; the sources stay within their size budgets; and every
    shape, named or fuzzed, emits only what it runs: ``kernel_run`` stores
    no name it never reads and zeroes no accumulator it never counts."""

    @pytest.mark.parametrize("name", sorted(SHAPE_CONFIGS))
    def test_each_cold_path_is_emitted_once(self, name):
        config = SHAPE_CONFIGS[name]
        source = kernel_source(config)
        assert source.count("walk_page(") == 1
        # the L2 miss's victim choice
        assert source.count("l2_fill = l2_base + l2_window.index(min(l2_window))") == 1
        # the L1 fill's victim choice
        assert source.count("fill_way = window.index(min(window))") == 1
        assert len(source.splitlines()) <= LINE_BUDGETS[config.interface.value]

    @pytest.mark.parametrize("name", sorted(SHAPE_CONFIGS))
    def test_kernel_run_binds_no_cell_variable(self, name):
        assert compile_kernel(SHAPE_CONFIGS[name]).entry.__code__.co_cellvars == ()

    def test_fig4_sources_fit_their_budget(self):
        assert sum(len(kernel_source(config).encode()) for config in FIG4_CONFIGS) <= 195_000

    @pytest.mark.parametrize("name", sorted(NAMED_SHAPES))
    def test_named_shape_emits_only_what_it_runs(self, name):
        assert emitted_waste(NAMED_SHAPES[name]) == NO_WASTE

    def test_fuzzed_shape_emits_only_what_it_runs(self, shape_seed):
        assert emitted_waste(random_shape(shape_seed)) == NO_WASTE


class TestFallbackContract:
    def test_collector_run_takes_the_generic_loop(self):
        trace = trace_for("gzip")
        config = SimulationConfig.malec()
        simulator = Simulator(config)
        with_collector = simulator.run(
            trace, options=RunOptions(collector=RunCollector(), kernel="specialized")
        )
        assert simulator.kernel_used is False
        oracle = run_configuration(config, trace, options=RunOptions(kernel="generic"))
        assert_results_identical(with_collector, oracle, "collector fallback")

    def test_foreign_kernel_rejected_by_runtime_guards(self):
        # A kernel compiled for MALEC attached to a baseline pipeline must
        # refuse to run: a guard raises, naming the failed check, before the
        # simulator's state or stats are touched.
        trace = trace_for("gzip")
        config = SimulationConfig.base_1ldst()
        foreign = compile_kernel(SimulationConfig.malec()).entry
        simulator = Simulator(config)
        params = simulator.config.pipeline
        view = trace.columnar()
        view.precompute_decompositions(config.cache.layout)
        pipeline = OutOfOrderPipeline(
            simulator.interface,
            params=params,
            stats=simulator.stats,
            kernel=foreign,
        )
        before = simulator.stats.as_dict()
        with pytest.raises(RuntimeError, match='__name__ != "MalecInterface"'):
            pipeline.run(view.run_slice(0, len(view)))
        assert not pipeline.kernel_used
        assert simulator.stats.as_dict() == before

    @pytest.mark.parametrize(
        "reshape",
        (list, lambda seqs: seqs[::2], lambda seqs: range(seqs.start, seqs.stop + 1)),
        ids=("list", "step-2", "past-capacity"),
    )
    def test_seqs_outside_the_window_contract_rejected(self, reshape):
        # A kernel keeps its ROB as a window of seqs, so it refuses seqs
        # that are not a step-1 range ending within capacity, before the
        # simulator's state or stats are touched.
        trace = trace_for("gzip")
        config = SimulationConfig.malec()
        simulator = Simulator(config)
        view = trace.columnar()
        view.precompute_decompositions(config.cache.layout)
        pipeline = OutOfOrderPipeline(
            simulator.interface, params=simulator.config.pipeline, stats=simulator.stats
        )
        seqs, total, capacity, arrays = view.run_slice(0, len(view)).columnar_pipeline_plan()
        before = simulator.stats.as_dict()
        with pytest.raises(RuntimeError, match=r"guard failed: type\(seqs\) is not range"):
            compile_kernel(config).entry(pipeline, reshape(seqs), total, capacity, arrays)
        assert simulator.stats.as_dict() == before

    def test_collector_guard_raises(self):
        # The simulator never hands a kernel to a collector run; a pipeline
        # built with both must refuse rather than run either loop.
        trace = trace_for("gzip")
        config = SimulationConfig.malec()
        simulator = Simulator(config)
        pipeline = OutOfOrderPipeline(
            simulator.interface,
            params=simulator.config.pipeline,
            stats=simulator.stats,
            collector=RunCollector(),
            kernel=compile_kernel(config).entry,
        )
        with pytest.raises(RuntimeError, match="pipeline.collector is not None"):
            pipeline.run(trace)
        assert not pipeline.kernel_used

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError):
            resolve_kernel("bogus")


def with_value(config: SimulationConfig, path: str, value) -> SimulationConfig:
    """``config`` with the field at the dotted ``path`` set to ``value``."""
    head, _, rest = path.partition(".")
    if rest:
        value = with_value(getattr(config, head), rest, value)
    return replace(config, **{head: value})


#: every number a kernel reads into a local at run time, and values to run
#: it at (Fig. 4's value among them)
HOISTED_VALUES = {
    "cache.l1_hit_latency": (1, 2, 3, 4),
    "cache.l2_latency": (6, 12, 20),
    "cache.dram_latency": (20, 54, 120),
    "pipeline.rob_entries": (8, 32, 168),
    "pipeline.fetch_width": (1, 3, 6),
    "pipeline.issue_width": (1, 2, 8),
    "pipeline.commit_width": (1, 3, 6),
    "lq_entries": (4, 12, 40),
    "sb_entries": (2, 8, 24),
    "mb_entries": (1, 4, 8),
}
#: MALEC's numbers read into locals
MALEC_HOISTED_VALUES = {
    "malec_options.result_buses": (1, 2, 4, 6),
    "malec_options.input_buffer_capacity": (1, 2, 3),
    "malec_options.merge_window": (0, 1, 2, 3, 4),
}
HOISTED_CASES = [
    (config, path)
    for config in (SimulationConfig.malec(), SimulationConfig.base_2ld1st())
    for path in sorted(HOISTED_VALUES)
    + (sorted(MALEC_HOISTED_VALUES) if config.interface is InterfaceKind.MALEC else [])
]


class TestHoistedNumbers:
    """A kernel reads the numbers its code only uses as operands (latencies,
    depths, widths, MALEC's result buses, Input Buffer capacity and merge
    window) from the live objects once per run.  So one compiled kernel
    runs every value, back to back in one process, and each run equals the
    generic loop."""

    @pytest.mark.parametrize(
        "config, path", HOISTED_CASES, ids=[f"{c.name}-{p}" for c, p in HOISTED_CASES]
    )
    def test_every_value_runs_on_one_kernel(self, config, path):
        program = compile_kernel(config)
        values = {**HOISTED_VALUES, **MALEC_HOISTED_VALUES}[path]
        for value in values:
            variant = with_value(config, path, value)
            assert compile_kernel(variant) is program, (path, value)
            assert_pipelines_identical(
                variant, trace_for("gzip", 600), 0.3, f"{config.name} {path}={value}"
            )


#: the MALEC default and configurations differing from it in one field that
#: selects the code a kernel runs, each a shape of its own
CODE_SELECTING_VARIANTS = [
    SimulationConfig.malec(),
    SimulationConfig.base_1ldst(),
    SimulationConfig.base_2ld1st(),
    _malec(way_determination="wdu"),
    _malec(way_determination="none"),
    _malec(merge_granularity="line"),
    _malec(merge_granularity="subblock"),
    _malec(merge_granularity="none"),
    _malec(enable_feedback_update=False),
    _malec(restrict_way_allocation=False),
    *(
        replace(SimulationConfig.malec(), cache=CacheParameters(layout=AddressLayout(**geometry)))
        for geometry in (
            {"page_bytes": 8192},
            {"line_bytes": 32},
            {"l1_capacity_bytes": 64 * 1024},
            {"l1_associativity": 8},
            {"l1_banks": 2},
        )
    ),
]


class TestKernelCache:
    def test_content_hash_ignores_name_and_seed(self):
        malec = SimulationConfig.malec()
        assert content_hash(malec) == content_hash(malec.with_name("renamed"))

    def test_compile_is_cached_per_content_hash(self):
        malec = SimulationConfig.malec()
        assert compile_kernel(malec) is compile_kernel(malec.with_name("other"))

    def test_fig4_configs_share_three_kernels(self):
        # Base2ld1st's and MALEC's two L1 latencies are numbers the kernels
        # read at run time: one kernel per interface kind
        assert len({content_hash(config) for config in FIG4_CONFIGS}) == 3

    def test_code_selecting_fields_never_share_a_kernel(self):
        hashes = [content_hash(config) for config in CODE_SELECTING_VARIANTS]
        assert len(set(hashes)) == len(CODE_SELECTING_VARIANTS)

    def test_malec_sensitivity_shares_three_kernels(self):
        # MALEC with way tables, MALEC with a WDU, and the baseline
        space = space_preset("malec-sensitivity")
        configs = [space.baseline] + [c.config for c in space.candidates(range(space.size))]
        assert len(configs) == 217
        assert len({content_hash(config) for config in configs}) == 3

    def test_cache_reset_drops_stale_linecache_entries(self, monkeypatch):
        # Every compiled source is registered with linecache; a cache reset
        # must unregister the programs it drops, or they leak.
        monkeypatch.setattr(kernels, "_CACHE", {})
        monkeypatch.setattr(kernels, "_CACHE_LIMIT", 2)
        monkeypatch.setattr(linecache, "cache", {})
        for config in FIG4_CONFIGS:
            compile_kernel(config)
        registered = {name for name in linecache.cache if name.startswith("<repro-kernel-")}
        assert registered == {program.filename for program in kernels._CACHE.values()}
        assert len(registered) == 1

    def test_prewarm_deduplicates(self):
        malec = SimulationConfig.malec()
        assert prewarm([malec, malec.with_name("again")]) == 1

    def test_source_is_dumpable_and_compiles(self):
        source = kernel_source(SimulationConfig.malec())
        assert "def kernel_run(" in source
        compile(source, "<dump>", "exec")
