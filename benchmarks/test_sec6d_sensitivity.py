"""Sec. VI-D — sensitivity analysis.

The paper's sensitivity discussion makes three testable points:

* way prediction degrades on streaming workloads (mcf-like): coverage and the
  resulting energy benefit drop sharply compared to cache-friendly workloads;
* MALEC's performance is primarily limited by the number of memory references
  issued per cycle and the number of result buses — shrinking the result-bus
  count costs performance, growing it beyond four does not help much;
* L1 access latency shifts all configurations consistently (already shown per
  configuration in Fig. 4a; here swept for MALEC at 1/2/3 cycles).
"""

from __future__ import annotations

from benchmarks.conftest import TRACE_INSTRUCTIONS, WARMUP_FRACTION
from repro.analysis.reporting import format_table
from repro.sim.config import MalecParameters, SimulationConfig
from repro.sim.simulator import run_configuration
from repro.workloads.suites import benchmark_profile
from repro.workloads.synthetic import generate_trace


def _trace(name):
    return generate_trace(benchmark_profile(name), instructions=TRACE_INSTRUCTIONS)


def test_sec6d_streaming_workloads_defeat_way_prediction(benchmark):
    def run():
        rows = []
        for name in ("djpeg", "gzip", "art", "mcf"):
            result = run_configuration(
                SimulationConfig.malec(), _trace(name), warmup_fraction=WARMUP_FRACTION
            )
            rows.append([name, result.way_coverage, result.l1_load_miss_rate])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print("\nSec. VI-D — way-determination coverage vs access locality")
    print(format_table(["benchmark", "coverage", "L1 load miss rate"], rows))

    by_name = {row[0]: row for row in rows}
    # Streaming benchmarks (mcf, art) have far lower coverage than local ones.
    assert by_name["djpeg"][1] > by_name["mcf"][1] + 0.2
    assert by_name["gzip"][1] > by_name["art"][1]


def test_sec6d_result_bus_sensitivity(benchmark):
    def run():
        trace = _trace("djpeg")
        rows = []
        for buses in (1, 2, 4, 6):
            config = SimulationConfig.malec(
                name=f"MALEC_{buses}buses",
                malec_options=MalecParameters(result_buses=buses),
            )
            result = run_configuration(config, trace, warmup_fraction=WARMUP_FRACTION)
            rows.append([buses, result.cycles])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print("\nSec. VI-D — sensitivity to the number of result buses (djpeg)")
    print(format_table(["result buses", "cycles"], rows))

    cycles = {buses: value for buses, value in rows}
    # Fewer result buses cost performance; beyond four the gain saturates.
    assert cycles[1] >= cycles[4]
    assert abs(cycles[6] - cycles[4]) <= 0.05 * cycles[4]


def test_sec6d_l1_latency_sweep(benchmark):
    def run():
        trace = _trace("gzip")
        rows = []
        for latency in (1, 2, 3):
            config = SimulationConfig.malec(l1_hit_latency=latency)
            result = run_configuration(config, trace, warmup_fraction=WARMUP_FRACTION)
            rows.append([latency, result.cycles])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print("\nSec. VI-D — MALEC execution time vs L1 hit latency (gzip)")
    print(format_table(["L1 latency [cycles]", "cycles"], rows))

    cycles = [value for _, value in rows]
    # Monotone: longer L1 latency never makes execution faster.
    assert cycles[0] <= cycles[1] <= cycles[2]


def test_sec6d_input_buffer_capacity(benchmark):
    def run():
        trace = _trace("h263dec")
        rows = []
        for capacity in (1, 2, 3):
            config = SimulationConfig.malec(
                name=f"MALEC_ib{capacity}",
                malec_options=MalecParameters(input_buffer_capacity=capacity),
            )
            result = run_configuration(config, trace, warmup_fraction=WARMUP_FRACTION)
            rows.append([capacity, result.cycles])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print("\nSec. VI-D — sensitivity to Input Buffer held-load capacity (h263dec)")
    print(format_table(["held loads", "cycles"], rows))
    cycles = [value for _, value in rows]
    # A larger Input Buffer can only help (or be neutral) on average.
    assert cycles[2] <= cycles[0] * 1.02
