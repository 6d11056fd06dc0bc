"""Tests for the synthetic workload generators and the locality analysis."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.locality import PageLocalityAnalyzer, RUN_LENGTH_BUCKETS
from repro.memory.address import DEFAULT_LAYOUT
from repro.workloads.profiles import BenchmarkProfile, StreamKind, StreamSpec
from repro.workloads.suites import (
    ALL_BENCHMARKS,
    EXTENDED_BENCHMARKS,
    LOCALITY_DIVERSE_BENCHMARKS,
    MEDIABENCH2,
    SPEC_FP,
    SPEC_INT,
    STRESS,
    STRESS_BENCHMARKS,
    SYNTHETIC,
    SYNTHETIC_BENCHMARKS,
    benchmark_profile,
    suite_profiles,
)
from repro.workloads.ingest import dump_jsonl, load_trace, window
from repro.workloads.synthetic import generate_trace

layout = DEFAULT_LAYOUT
analyzer = PageLocalityAnalyzer()


def memory_addresses(trace):
    """Addresses of the load and store records, in program order."""
    return [address for kind, address in zip(trace.kinds, trace.addresses) if kind]


def footprint_pages(trace):
    """Distinct pages the load and store records touch."""
    return len({layout.page_id(address) for address in memory_addresses(trace)})


def record_deps(trace, seq):
    """The backward dependency distances of record ``seq``."""
    offsets = trace.dep_offsets()
    return tuple(trace.deps_pool[offsets[seq] : offsets[seq + 1]])


def dependent_loads(trace):
    """Number of load records that carry a dependency."""
    return sum(1 for kind, ndeps in zip(trace.kinds, trace.ndeps) if kind == 1 and ndeps)


class TestProfilesRegistry:
    def test_all_38_benchmarks_present(self):
        assert len(ALL_BENCHMARKS) == 38
        assert len(suite_profiles(SPEC_INT)) == 12
        assert len(suite_profiles(SPEC_FP)) == 14
        assert len(suite_profiles(MEDIABENCH2)) == 12

    def test_paper_benchmarks_named(self):
        for name in ("gzip", "mcf", "gap", "equake", "mgrid", "djpeg", "h263dec"):
            assert name in ALL_BENCHMARKS

    def test_synthetic_extras_registered_but_not_counted(self):
        # The SYN profiles extend the registry without touching the paper's
        # 38-benchmark grid (Fig. 4 sweeps must not change shape).
        assert SYNTHETIC_BENCHMARKS == ("ptrchase", "streamwrite")
        assert len(EXTENDED_BENCHMARKS) == 43
        assert not set(SYNTHETIC_BENCHMARKS) & set(ALL_BENCHMARKS)
        assert len(suite_profiles(SYNTHETIC)) == 2
        for name in SYNTHETIC_BENCHMARKS:
            assert benchmark_profile(name).suite == SYNTHETIC
            assert name in LOCALITY_DIVERSE_BENCHMARKS

    def test_stress_profiles_registered_but_out_of_sweeps(self):
        # The STRESS profiles exist for the columnar/object differential net;
        # sweeps and DSE presets must never pick them up implicitly.
        assert STRESS_BENCHMARKS == ("tlbthrash", "depchase", "mlpladder")
        assert len(suite_profiles(STRESS)) == 3
        for name in STRESS_BENCHMARKS:
            assert benchmark_profile(name).suite == STRESS
            assert name not in SYNTHETIC_BENCHMARKS
            assert name not in LOCALITY_DIVERSE_BENCHMARKS
            assert name not in ALL_BENCHMARKS
            assert name in EXTENDED_BENCHMARKS

    def test_tlbthrash_marches_pages(self):
        trace = generate_trace(benchmark_profile("tlbthrash"), instructions=3000)
        refs = memory_addresses(trace)
        # Far more distinct pages than the 64-entry TLB can hold, and nearly
        # every reference lands on a new page (page-sized strides).
        assert footprint_pages(trace) > 256
        assert footprint_pages(trace) > 0.8 * len(refs)
        # No dependent loads: full MLP keeps translation pressure maximal.
        assert dependent_loads(trace) == 0

    def test_depchase_serializes_addresses(self):
        def dependent_load_fraction(name):
            trace = generate_trace(benchmark_profile(name), instructions=3000)
            return dependent_loads(trace) / trace.load_count

        # Nearly every load waits on a producer (chase_dep = 0.85 across
        # four chase streams) — well beyond mcf, the paper's chase extreme.
        assert dependent_load_fraction("depchase") > 0.9
        assert dependent_load_fraction("depchase") > dependent_load_fraction("mcf")

    def test_mlpladder_keeps_independent_misses_in_flight(self):
        trace = generate_trace(benchmark_profile("mlpladder"), instructions=3000)
        # Stepped ladders of independent sweeps: a multi-rung footprint well
        # past the uTLB with almost no dependent loads, so misses overlap
        # freely instead of serializing behind producers.
        assert footprint_pages(trace) > 64
        assert dependent_loads(trace) / trace.load_count < 0.2

    def test_ptrchase_has_low_page_locality(self):
        def locality(name):
            trace = generate_trace(benchmark_profile(name), instructions=3000)
            return analyzer.same_page_follow_fraction(trace.load_addresses(), 0)

        # Lower than the lowest-locality paper pick and far below media.
        assert locality("ptrchase") < locality("mcf")
        assert locality("ptrchase") < locality("djpeg") - 0.2

    def test_streamwrite_is_store_dominated(self):
        trace = generate_trace(benchmark_profile("streamwrite"), instructions=3000)
        stores, loads = trace.store_count, trace.load_count
        assert stores > loads  # inverted load/store ratio vs the 2:1 suites
        gzip_trace = generate_trace(benchmark_profile("gzip"), instructions=3000)
        gzip_stores, gzip_loads = gzip_trace.store_count, gzip_trace.load_count
        assert stores / (stores + loads) > 2 * gzip_stores / (gzip_stores + gzip_loads)

    def test_unknown_lookup_raises(self):
        with pytest.raises(KeyError):
            benchmark_profile("doom")
        with pytest.raises(ValueError):
            suite_profiles("SPEC-2017")

    def test_suite_memory_fractions_follow_paper(self):
        """Sec. III: INT ~45 %, FP ~40 %, MB2 ~37 % memory references."""
        int_avg = sum(p.memory_fraction for p in suite_profiles(SPEC_INT)) / 12
        fp_avg = sum(p.memory_fraction for p in suite_profiles(SPEC_FP)) / 14
        mb_avg = sum(p.memory_fraction for p in suite_profiles(MEDIABENCH2)) / 12
        assert int_avg > fp_avg > mb_avg
        assert 0.42 <= int_avg <= 0.48
        assert 0.35 <= mb_avg <= 0.39

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            BenchmarkProfile(name="bad", suite=SPEC_INT, streams=())
        with pytest.raises(ValueError):
            BenchmarkProfile(
                name="bad", suite=SPEC_INT, memory_fraction=1.5,
                streams=(StreamSpec(kind=StreamKind.HOT_REGION),),
            )
        with pytest.raises(ValueError):
            StreamSpec(kind=StreamKind.HOT_REGION, weight=0)
        with pytest.raises(ValueError):
            StreamSpec(kind=StreamKind.HOT_REGION, page_stay_probability=2.0)


class TestTraceJsonl:
    @pytest.mark.parametrize("suffix", ["jsonl", "jsonl.gz"])
    def test_round_trip(self, tmp_path, suffix):
        original = generate_trace(benchmark_profile("gzip"), instructions=600)
        path = tmp_path / f"gzip.{suffix}"
        dump_jsonl(original, path)
        restored = load_trace(path)
        assert restored.name == original.name
        assert restored.suite == original.suite
        assert restored.layout == original.layout
        assert len(restored) == len(original)
        # Every record field, and the dependency pool, survive bit for bit.
        assert restored.to_bytes() == original.to_bytes()

    def test_gzip_file_is_actually_compressed(self, tmp_path):
        trace = generate_trace(benchmark_profile("gzip"), instructions=600)
        plain, packed = tmp_path / "t.jsonl", tmp_path / "t.jsonl.gz"
        dump_jsonl(trace, plain)
        dump_jsonl(trace, packed)
        assert packed.read_bytes()[:2] == b"\x1f\x8b"  # gzip magic
        assert packed.stat().st_size < plain.stat().st_size

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ValueError):
            load_trace(path)

    def test_simulation_on_reloaded_trace_matches(self, tmp_path):
        from repro.sim.config import SimulationConfig
        from repro.sim.simulator import run_configuration

        trace = generate_trace(benchmark_profile("djpeg"), instructions=600)
        path = tmp_path / "djpeg.jsonl.gz"
        dump_jsonl(trace, path)
        reloaded = load_trace(path)
        config = SimulationConfig.malec()
        direct = run_configuration(config, trace, warmup_fraction=0.25)
        cached = run_configuration(config, reloaded, warmup_fraction=0.25)
        assert direct.cycles == cached.cycles
        assert direct.stats == cached.stats


class TestTraceGeneration:
    def test_deterministic_per_profile(self):
        profile = benchmark_profile("gzip")
        a = generate_trace(profile, instructions=800)
        b = generate_trace(profile, instructions=800)
        assert memory_addresses(a) == memory_addresses(b)

    def test_different_benchmarks_differ(self):
        a = generate_trace(benchmark_profile("gzip"), instructions=800)
        b = generate_trace(benchmark_profile("mcf"), instructions=800)
        assert memory_addresses(a) != memory_addresses(b)

    def test_requested_length(self):
        trace = generate_trace(benchmark_profile("crafty"), instructions=500)
        assert len(trace) == 500

    def test_memory_fraction_close_to_profile(self):
        profile = benchmark_profile("gzip")
        trace = generate_trace(profile, instructions=6000)
        memory_fraction = len(memory_addresses(trace)) / len(trace)
        assert abs(memory_fraction - profile.memory_fraction) < 0.06

    def test_load_store_ratio_near_two(self):
        """Sec. III: load/store ratio of roughly 2:1."""
        trace = generate_trace(benchmark_profile("gzip"), instructions=6000)
        assert 1.5 <= trace.load_count / trace.store_count <= 3.5

    def test_addresses_within_address_space(self):
        trace = generate_trace(benchmark_profile("swim"), instructions=2000)
        for address in memory_addresses(trace):
            assert 0 <= address <= layout.max_address

    def test_dependencies_point_backwards(self):
        trace = generate_trace(benchmark_profile("mcf"), instructions=2000)
        for seq in range(len(trace)):
            for distance in record_deps(trace, seq):
                assert distance > 0
                assert seq - distance >= -1

    def test_mcf_has_pointer_chase_dependencies(self):
        trace = generate_trace(benchmark_profile("mcf"), instructions=4000)
        assert dependent_loads(trace) > 50

    def test_mcf_footprint_much_larger_than_media(self):
        mcf = generate_trace(benchmark_profile("mcf"), instructions=4000)
        djpeg = generate_trace(benchmark_profile("djpeg"), instructions=4000)
        assert footprint_pages(mcf) > 5 * footprint_pages(djpeg)

    def test_trace_container_helpers(self):
        trace = generate_trace(benchmark_profile("eon"), instructions=300)
        head = window(trace, 0, 100)
        assert len(head) == 100
        assert head.kinds[0] == trace.kinds[0]
        assert trace.summary().startswith("eon: 300 instr, ")
        assert trace.summary().endswith(f", {footprint_pages(trace)} pages")


class TestPaperMotivation:
    """Sec. III / Fig. 1: the statistics motivating page-based grouping."""

    def test_overall_page_locality_near_70_percent(self):
        values = []
        for name in ("gzip", "gap", "crafty", "mesa", "djpeg", "h263dec", "mpeg2dec"):
            trace = generate_trace(benchmark_profile(name), instructions=4000)
            values.append(analyzer.same_page_follow_fraction(trace.load_addresses(), 0))
        average = sum(values) / len(values)
        assert 0.60 <= average <= 0.85

    def test_intermediate_accesses_increase_coverage(self):
        trace = generate_trace(benchmark_profile("gzip"), instructions=4000)
        loads = trace.load_addresses()
        series = [analyzer.same_page_follow_fraction(loads, n) for n in (0, 1, 2, 3)]
        assert series == sorted(series)
        assert series[3] > series[0]

    def test_line_locality_lower_than_page_locality(self):
        trace = generate_trace(benchmark_profile("gzip"), instructions=4000)
        loads = trace.load_addresses()
        line = analyzer.same_line_follow_fraction(loads)
        page = analyzer.same_page_follow_fraction(loads, 0)
        assert line < page
        assert 0.2 <= line <= 0.7

    def test_media_benchmarks_most_page_local(self):
        def locality(name):
            trace = generate_trace(benchmark_profile(name), instructions=4000)
            return analyzer.same_page_follow_fraction(trace.load_addresses(), 0)

        assert locality("h263dec") > locality("mcf")
        assert locality("djpeg") > locality("mcf")


class TestLocalityAnalyzer:
    def test_follow_fraction_simple_sequence(self):
        a = layout.compose(1, 0)
        b = layout.compose(2, 0)
        # a a b a : 2 of 3 transitions stay on the same page.
        assert analyzer.same_page_follow_fraction([a, a, b, a], 0) == pytest.approx(1 / 3)
        assert analyzer.same_page_follow_fraction([a, a, b, a], 1) == pytest.approx(2 / 3)

    def test_same_line_follow(self):
        a = layout.compose_line(1, 0, 0)
        b = layout.compose_line(1, 0, 8)
        c = layout.compose_line(1, 1, 0)
        assert analyzer.same_line_follow_fraction([a, b, c]) == pytest.approx(0.5)

    def test_short_sequences(self):
        assert analyzer.same_page_follow_fraction([], 0) == 0.0
        assert analyzer.same_page_follow_fraction([0x1000], 0) == 0.0
        assert analyzer.same_line_follow_fraction([0x1000]) == 0.0

    def test_run_distribution_sums_to_one(self):
        trace = generate_trace(benchmark_profile("vpr"), instructions=2000)
        distribution = analyzer.run_length_distribution(trace.load_addresses(), 1)
        assert sum(distribution.values()) == pytest.approx(1.0)
        assert set(distribution) == set(RUN_LENGTH_BUCKETS)

    def test_run_distribution_all_same_page(self):
        addresses = [layout.compose(1, i * 8) for i in range(20)]
        distribution = analyzer.run_length_distribution(addresses, 0)
        assert distribution["8<x"] == pytest.approx(1.0)

    def test_run_distribution_alternating_pages(self):
        a = layout.compose(1, 0)
        b = layout.compose(2, 0)
        strict = analyzer.run_length_distribution([a, b] * 10, 0)
        tolerant = analyzer.run_length_distribution([a, b] * 10, 1)
        # With no tolerated intermediates every access is a run of one; with
        # one intermediate the alternating pattern fuses into long runs.
        assert strict["x=1"] == pytest.approx(1.0)
        assert tolerant["8<x"] == pytest.approx(1.0)

    def test_negative_intermediates_rejected(self):
        with pytest.raises(ValueError):
            analyzer.same_page_follow_fraction([0x0, 0x1], -1)
        with pytest.raises(ValueError):
            analyzer.run_length_distribution([0x0], -1)

    def test_full_report(self):
        trace = generate_trace(benchmark_profile("cjpeg"), instructions=1500)
        report = analyzer.analyze(trace.load_addresses(), intermediates=(0, 1, 2, 3))
        assert report.accesses == len(trace.load_addresses())
        assert set(report.follow_fraction) == {0, 1, 2, 3}
        assert "same-line" in report.summary()

    @given(st.lists(st.integers(min_value=0, max_value=layout.max_address), min_size=2, max_size=60))
    @settings(max_examples=50)
    def test_follow_fraction_monotone_in_window(self, addresses):
        """Tolerating more intermediates can only increase the fraction."""
        f0 = analyzer.same_page_follow_fraction(addresses, 0)
        f2 = analyzer.same_page_follow_fraction(addresses, 2)
        f5 = analyzer.same_page_follow_fraction(addresses, 5)
        assert f0 <= f2 <= f5

    @given(st.lists(st.integers(min_value=0, max_value=layout.max_address), min_size=1, max_size=60))
    @settings(max_examples=50)
    def test_run_distribution_is_a_distribution(self, addresses):
        distribution = analyzer.run_length_distribution(addresses, 1)
        assert sum(distribution.values()) == pytest.approx(1.0)
        assert all(0 <= value <= 1 for value in distribution.values())


class TestPrecomputeDecompositions:
    def test_counts_memory_refs(self):
        from repro.memory.address import AddressLayout

        trace = generate_trace(benchmark_profile("gzip"), instructions=400)
        count = trace.precompute_decompositions(AddressLayout())
        assert count == trace.load_count + trace.store_count

    def test_rejects_address_past_the_layout(self):
        # The call is the trace's range check: one address past max_address
        # fails with AddressLayout.check's error, and so does Simulator.run,
        # before it simulates.
        from repro.cpu.instruction import load
        from repro.sim.config import SimulationConfig
        from repro.sim.simulator import Simulator
        from repro.workloads.trace import MemoryTrace

        far = MemoryTrace(name="far", instructions=[load(0x1000), load(1 << 40)])
        with pytest.raises(ValueError, match="outside 32-bit address space"):
            far.columnar().precompute_decompositions()
        simulator = Simulator(SimulationConfig.malec())
        with pytest.raises(ValueError, match="outside 32-bit address space"):
            simulator.run(far)
        assert simulator.stats.as_dict() == {}

    def test_defaults_to_own_layout(self):
        trace = generate_trace(benchmark_profile("gzip"), instructions=200)
        assert trace.precompute_decompositions() == trace.load_count + trace.store_count
