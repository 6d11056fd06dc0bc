"""Sec. VI-C and Sec. V — Page-Based Way Determination vs the WDU.

Two experiments:

* **WT vs WDU** — substituting the way tables with 8-, 16- and 32-entry
  line-based WDUs.  Paper: the WDUs reach only 68 %, 76 % and 78 % coverage
  (vs 94 % for the way tables) and consume 4 %, 5 % and 8 % more energy.
* **uWT feedback ablation** — disabling the last-entry-register update that
  trains the uWT when an "unknown" prediction turns out to be a conventional
  hit.  Paper: coverage drops from 94 % to 75 %.
"""

from __future__ import annotations

from benchmarks.conftest import TRACE_INSTRUCTIONS, WARMUP_FRACTION
from repro.analysis.reporting import format_table
from repro.sim.config import MalecParameters, SimulationConfig
from repro.sim.simulator import run_configuration
from repro.workloads.profiles import BenchmarkProfile, StreamKind, StreamSpec
from repro.workloads.suites import SPEC_INT, benchmark_profile
from repro.workloads.synthetic import generate_trace

BENCHMARKS = ["gzip", "gap", "mesa", "djpeg", "h263dec", "mpeg2dec"]


def _coverage_and_energy(config):
    coverages, energies = [], []
    for name in BENCHMARKS:
        trace = generate_trace(benchmark_profile(name), instructions=TRACE_INSTRUCTIONS)
        result = run_configuration(config, trace, warmup_fraction=WARMUP_FRACTION)
        coverages.append(result.way_coverage)
        energies.append(result.energy.total_pj)
    return sum(coverages) / len(coverages), sum(energies)


def test_sec6c_wt_vs_wdu(benchmark):
    def sweep():
        rows = []
        wt_config = SimulationConfig.malec()
        wt_coverage, wt_energy = _coverage_and_energy(wt_config)
        rows.append(["WT (page-based)", wt_coverage, 1.0])
        for entries in (8, 16, 32):
            config = SimulationConfig.malec(
                name=f"MALEC_WDU{entries}",
                malec_options=MalecParameters(way_determination="wdu", wdu_entries=entries),
            )
            coverage, energy = _coverage_and_energy(config)
            rows.append([f"WDU {entries} entries", coverage, energy / wt_energy])
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print("\nSec. VI-C — way determination schemes "
          "(paper coverage: WT 94%, WDU8 68%, WDU16 76%, WDU32 78%; "
          "WDU energy +4/5/8%)")
    print(format_table(["scheme", "avg coverage", "energy vs WT"], rows))

    by_scheme = {row[0]: row for row in rows}
    wt = by_scheme["WT (page-based)"]
    wdu8 = by_scheme["WDU 8 entries"]
    wdu16 = by_scheme["WDU 16 entries"]
    wdu32 = by_scheme["WDU 32 entries"]

    # The page-based scheme covers more accesses than every WDU size.
    assert wt[1] > wdu8[1]
    assert wt[1] > wdu16[1]
    assert wt[1] > wdu32[1]
    # Larger WDUs cover more than smaller ones.
    assert wdu32[1] >= wdu16[1] >= wdu8[1]
    # Every WDU configuration costs more energy than the way tables.
    assert wdu8[2] > 1.0 and wdu16[2] > 1.0 and wdu32[2] > 1.0


def _tlb_pressure_trace():
    """A workload whose page footprint (≈150 pages) exceeds the 64-entry TLB
    while its line footprint still fits the 32 KByte L1.

    This is exactly the situation the last-entry-register feedback of Sec. V
    targets: pages get evicted from the TLB (losing their WT entry) while
    their lines stay cache resident, so the next access predicts "unknown",
    hits conventionally and the feedback re-learns the way.  The regular
    benchmark profiles have either small footprints (no TLB pressure) or
    streaming behaviour (lines do not survive in the L1), which is why the
    paper's 94 % vs 75 % gap is demonstrated on this targeted workload.
    """
    profile = BenchmarkProfile(
        name="tlb_pressure",
        suite=SPEC_INT,
        memory_fraction=0.45,
        streams=(
            StreamSpec(
                kind=StreamKind.POINTER_CHASE,
                footprint_pages=150,
                page_stay_probability=0.3,
                store_fraction=0.1,
            ),
            StreamSpec(kind=StreamKind.HOT_REGION, footprint_pages=4, weight=0.5),
        ),
        stream_switch_probability=0.3,
        pointer_chase_dependency=0.2,
        load_use_dependency=0.4,
        seed=11,
    )
    return generate_trace(profile, instructions=6000)


def test_sec5_feedback_update_ablation(benchmark):
    def sweep():
        trace = _tlb_pressure_trace()
        with_feedback = run_configuration(
            SimulationConfig.malec(), trace, warmup_fraction=WARMUP_FRACTION
        )
        without_feedback = run_configuration(
            SimulationConfig.malec(
                name="MALEC_no_feedback",
                malec_options=MalecParameters(enable_feedback_update=False),
            ),
            trace,
            warmup_fraction=WARMUP_FRACTION,
        )
        return with_feedback.way_coverage, without_feedback.way_coverage

    cov_with, cov_without = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print("\nSec. V — uWT feedback update ablation on a TLB-pressure workload "
          f"(paper: 94% with vs 75% without): {cov_with:.3f} vs {cov_without:.3f}")
    # The feedback path must recover a measurable amount of coverage.
    assert cov_with > cov_without
    assert cov_with - cov_without > 0.02
