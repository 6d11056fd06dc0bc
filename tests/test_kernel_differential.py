"""Differential net: specialized simulation kernels against the generic loop.

The specialized kernels (PR 8) are the simulator's default way of running a
configuration; the generic interpreted loop stays behind
``RunOptions(kernel="generic")`` precisely so these tests can hold the two to
*bit-identical* results — every ``StatCounters`` counter and every
per-structure energy value, not just cycles.  Coverage spans the fig4-mini
grid (all five Fig. 4 configurations), pipeline-level runs, randomized
seeded synthetic profiles, and the adversarial ``STRESS`` profiles
(``tlbthrash``/``depchase``/``mlpladder``), whose absolute results are
additionally pinned to ``tests/golden/stress_profiles.json``.

The net also locks down the fallback contract: collector runs take the
generic path and say why, a kernel compiled for a different configuration is
rejected by its runtime guards (raising before it touches any state, never
running the generic loop in its place), and the selection is validated.

Regenerating the stress golden file is a deliberate act::

    PYTHONPATH=src python tests/golden/regenerate.py
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from repro.api import RunOptions
from repro.cpu.pipeline import OutOfOrderPipeline
from repro.obs import RunCollector
from repro.sim.config import SimulationConfig
from repro.sim.kernels import (
    compile_kernel,
    content_hash,
    kernel_source,
    prewarm,
    resolve_kernel,
)
from repro.sim.simulator import Simulator, run_configuration
from repro.workloads.profiles import BenchmarkProfile, StreamKind, StreamSpec
from repro.workloads.suites import STRESS_BENCHMARKS, benchmark_profile
from repro.workloads.synthetic import generate_trace

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
    assert specialized.energy == oracle.energy, label


def run_with_kernel(config, trace, kernel, warmup=0.0):
    """One fresh simulation with the kernel pinned; returns (result, simulator).

    Uses :class:`Simulator` directly (not ``run_configuration``) so callers
    can also assert on ``kernel_used`` / ``kernel_fallback_reason`` — a
    specialized run that silently fell back would make the differential
    vacuous.
    """
    simulator = Simulator(config)
    result = simulator.run(
        trace, warmup_fraction=warmup, options=RunOptions(kernel=kernel)
    )
    return result, simulator


def run_pipeline_kernel(config, trace, kernel, warmup=0.0):
    """One fresh simulation with the pipelines built here, kernel pinned.

    The pipeline is constructed directly (as the simulator does), so the
    test can inspect the measured pipeline's own ``kernel_used`` flag.
    """
    simulator = Simulator(config)
    params = simulator._pipeline_parameters()
    entry = compile_kernel(config).entry if kernel == "specialized" else None
    view = trace.columnar()
    view.precompute_decompositions(config.cache.layout)
    total = len(view)
    warmup_count = int(total * warmup)
    if warmup_count:
        OutOfOrderPipeline(
            simulator.interface,
            params=params,
            stats=simulator.stats,
            kernel=entry,
        ).run(view.run_slice(0, warmup_count))
        simulator.stats.clear()
    pipeline = OutOfOrderPipeline(
        simulator.interface,
        params=params,
        stats=simulator.stats,
        kernel=entry,
    )
    result = pipeline.run(view.run_slice(warmup_count, total))
    return result, simulator.stats.as_dict(), pipeline


class TestFig4GridIdentity:
    @pytest.mark.parametrize("config", FIG4_CONFIGS, ids=lambda c: c.name)
    @pytest.mark.parametrize("bench", FIG4_MINI_BENCHMARKS)
    def test_fig4_mini_grid_bit_identical(self, config, bench):
        trace = trace_for(bench)
        specialized, simulator = run_with_kernel(
            config, trace, "specialized", warmup=0.3
        )
        assert simulator.kernel_used, f"{bench}/{config.name} fell back: " + str(
            simulator.kernel_fallback_reason
        )
        oracle = run_configuration(
            config, trace, warmup_fraction=0.3, options=RunOptions(kernel="generic")
        )
        assert_results_identical(specialized, oracle, f"{bench}/{config.name}")


class TestPipelineIdentity:
    @pytest.mark.parametrize("bench", STRESS_BENCHMARKS)
    def test_stress_profiles_identical(self, bench):
        trace = trace_for(bench)
        config = SimulationConfig.malec()
        spec_result, spec_stats, spec_pipeline = run_pipeline_kernel(
            config, trace, "specialized", warmup=0.3
        )
        assert spec_pipeline.kernel_used, bench
        gen_result, gen_stats, _ = run_pipeline_kernel(
            config, trace, "generic", warmup=0.3
        )
        assert spec_result.cycles == gen_result.cycles, bench
        assert spec_stats == gen_stats, bench

    def test_fig4_pick_identical(self):
        trace = trace_for("gzip")
        config = SimulationConfig.base_2ld1st()
        spec_result, spec_stats, spec_pipeline = run_pipeline_kernel(
            config, trace, "specialized"
        )
        assert spec_pipeline.kernel_used
        gen_result, gen_stats, _ = run_pipeline_kernel(config, trace, "generic")
        assert spec_result.cycles == gen_result.cycles
        assert spec_stats == gen_stats


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


class TestFallbackContract:
    def test_collector_run_falls_back_and_says_why(self):
        trace = trace_for("gzip")
        config = SimulationConfig.malec()
        simulator = Simulator(config)
        with_collector = simulator.run(
            trace, options=RunOptions(collector=RunCollector(), kernel="specialized")
        )
        assert not simulator.kernel_used
        assert simulator.kernel_fallback_reason == "collector attached"
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
        params = simulator._pipeline_parameters()
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

    def test_collector_guard_raises(self):
        # The simulator never hands a kernel to a collector run; a pipeline
        # built with both must refuse rather than run either loop.
        trace = trace_for("gzip")
        config = SimulationConfig.malec()
        simulator = Simulator(config)
        pipeline = OutOfOrderPipeline(
            simulator.interface,
            params=simulator._pipeline_parameters(),
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


class TestKernelCache:
    def test_content_hash_ignores_name_and_seed(self):
        malec = SimulationConfig.malec()
        assert content_hash(malec) == content_hash(malec.with_name("renamed"))

    def test_compile_is_cached_per_content_hash(self):
        malec = SimulationConfig.malec()
        assert compile_kernel(malec) is compile_kernel(malec.with_name("other"))

    def test_distinct_configs_get_distinct_kernels(self):
        hashes = {content_hash(config) for config in FIG4_CONFIGS}
        assert len(hashes) == len(FIG4_CONFIGS)

    def test_prewarm_deduplicates(self):
        malec = SimulationConfig.malec()
        assert prewarm([malec, malec.with_name("again")]) == 1

    def test_source_is_dumpable_and_compiles(self):
        source = kernel_source(SimulationConfig.malec())
        assert "def kernel_run(" in source
        compile(source, "<dump>", "exec")
