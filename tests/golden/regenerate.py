"""Regenerate the golden result files from the current code.

Rewrites ``tests/golden/fig4_mini.json`` (the fig4-mini campaign records),
``tests/golden/stress_profiles.json`` (the STRESS-suite anchors) and
``tests/golden/pipeline_identity.json`` (the pipeline identity cases, see
:func:`pipeline_identity_cases`).  Run only when a PR *deliberately* changes
simulation behaviour (and say so in the PR description) — the golden tests
exist precisely so performance work cannot drift the paper reproduction
silently::

    PYTHONPATH=src python tests/golden/regenerate.py

The STRESS anchors and the identity cases were first computed by reference
oracles that no longer exist — the per-``Instruction`` object frontend and
the cycle-driven scheduler that polled every component every cycle — and
asserted equal to the columnar, event-driven run at the time.  Regenerating
them now runs the one remaining path; an unchanged file is the proof that
path still gives the oracles' answers.
"""

from __future__ import annotations

import hashlib
import json
import random
import tempfile
from dataclasses import replace
from pathlib import Path

from repro.campaign.executor import ParallelExecutor
from repro.campaign.spec import campaign_preset
from repro.campaign.store import ResultStore, result_to_dict
from repro.cpu.instruction import compute, load, store
from repro.sim.config import MalecParameters, PipelineParameters, SimulationConfig
from repro.sim.simulator import SimulationResult, run_configuration
from repro.workloads.profiles import BenchmarkProfile, StreamKind, StreamSpec
from repro.workloads.suites import (
    STRESS_BENCHMARKS,
    SYNTHETIC_BENCHMARKS,
    benchmark_profile,
)
from repro.workloads.synthetic import generate_trace
from repro.workloads.trace import MemoryTrace

#: trace length / warmup the stress anchors are pinned at
STRESS_INSTRUCTIONS = 1200
STRESS_WARMUP = 0.3


def regenerate(path: Path) -> int:
    spec = campaign_preset("fig4-mini")
    with tempfile.TemporaryDirectory() as tmp:
        store = ResultStore(tmp)
        ParallelExecutor(jobs=1, store=store).run(spec)
        records = {record["key"]: record for record in store.records()}
    payload = {
        "preset": spec.name,
        "instructions": spec.instructions,
        "warmup_fraction": spec.warmup_fraction,
        "seed": spec.seed,
        "records": records,
    }
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return len(records)


def regenerate_stress(path: Path) -> int:
    """Pin the STRESS profiles on the Fig. 4 grid."""
    records = {}
    for bench in STRESS_BENCHMARKS:
        trace = generate_trace(
            benchmark_profile(bench), instructions=STRESS_INSTRUCTIONS
        )
        for config in SimulationConfig.figure4_suite():
            result = run_configuration(config, trace, warmup_fraction=STRESS_WARMUP)
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
    payload = {
        "instructions": STRESS_INSTRUCTIONS,
        "warmup_fraction": STRESS_WARMUP,
        "records": records,
    }
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return len(records)


# ----------------------------------------------------------------------
# Pipeline identity cases
# ----------------------------------------------------------------------
def _random_mix_trace(seed: int, length: int = 350) -> MemoryTrace:
    """Mixed loads/stores/computes with random deps, bursts and far pages."""
    rng = random.Random(seed)
    pages = [0x4000 * (1 + p) for p in range(4)] + [
        (1 << 21) * (3 + p) for p in range(5)
    ]
    instructions = []
    for index in range(length):
        roll = rng.random()
        address = rng.choice(pages) + rng.randrange(0, 4096, 4)
        deps = ()
        if index and rng.random() < 0.45:
            deps = (rng.randrange(1, min(index, 10) + 1),)
        if roll < 0.4:
            instructions.append(load(address, deps=deps))
        elif roll < 0.6:
            instructions.append(store(address, deps=deps))
        else:
            instructions.append(compute(deps=deps))
    return MemoryTrace(name=f"rand-{seed}", instructions=instructions)


def _random_config(seed: int) -> SimulationConfig:
    """A randomized configuration drawn from all three interface families."""
    rng = random.Random(1000 + seed)
    family = rng.choice(["base1", "base2", "malec"])
    latency = rng.choice([1, 2, 3])
    if family == "base1":
        return SimulationConfig.base_1ldst(l1_hit_latency=latency)
    if family == "base2":
        return SimulationConfig.base_2ld1st(l1_hit_latency=latency)
    options = MalecParameters(
        way_determination=rng.choice(["wt", "wdu", "none"]),
        result_buses=rng.choice([2, 4]),
        input_buffer_capacity=rng.choice([1, 2, 3]),
    )
    return SimulationConfig.malec(l1_hit_latency=latency, malec_options=options)


def _chase_trace(links: int, tail_store: bool) -> MemoryTrace:
    """Serially dependent loads, each to a fresh page: every load misses to
    DRAM and stalls the machine for the full miss latency."""
    instructions = []
    for index in range(links):
        # 1 MByte stride: distinct pages, distinct L1/L2 sets.
        instructions.append(
            load(0x10000 + index * (1 << 20), deps=(1,) if index else ())
        )
        instructions.append(compute(deps=(1,)))
    if tail_store:
        instructions.append(store(0x500000, deps=(1,)))
    return MemoryTrace(name="pointer-chase", instructions=instructions)


def _burst_trace(seed: int) -> MemoryTrace:
    """Bursts of same-page loads, deferred stores and mixed dependency chains:
    the corners where a deferred op's back-pressure is released by the same
    cycle's tick."""
    rng = random.Random(seed)
    pages = [0x10000 * (1 + p) for p in range(3)] + [
        (1 << 20) * (7 + p) for p in range(4)
    ]
    instructions = []
    for index in range(400):
        roll = rng.random()
        address = rng.choice(pages) + rng.randrange(0, 4096, 4)
        deps = ()
        if index and rng.random() < 0.5:
            deps = (rng.randrange(1, min(index, 12) + 1),)
        if roll < 0.45:
            instructions.append(load(address, deps=deps))
        elif roll < 0.65:
            instructions.append(store(address, deps=deps))
        else:
            instructions.append(compute(deps=deps))
    return MemoryTrace(name=f"burst-{seed}", instructions=instructions)


def _random_profile(seed: int) -> BenchmarkProfile:
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
        name=f"fuzz{seed}",
        suite="SYN",
        memory_fraction=rng.uniform(0.25, 0.55),
        streams=streams,
        stream_switch_probability=rng.uniform(0.1, 0.7),
        pointer_chase_dependency=rng.uniform(0.0, 0.9),
        load_use_dependency=rng.uniform(0.1, 0.7),
        seed=seed * 977 + 13,
    )


def pipeline_identity_cases():
    """``(name, config, trace, warmup_fraction)`` of every pinned case.

    The cases the scheduler, fast-forward and frontend differential suites
    ran: randomized configurations and traces, warmed benchmark runs,
    pointer chases whose idle stretches the clock jumps over, a tiny
    pipeline that forces deferrals, high-IPC and bursty traces on every
    interface family, the fig4-mini grid, the synthetic extremes and
    randomized seeded profiles.
    """
    for seed in range(8):
        yield f"random/{seed}", _random_config(seed), _random_mix_trace(seed), 0.0
    malec = SimulationConfig.malec()
    for bench in ("gzip", "mcf", "djpeg"):
        trace = generate_trace(benchmark_profile(bench), instructions=900)
        yield f"warmup/{bench}", malec, trace, 0.3
    chase = _chase_trace(50, tail_store=False)
    yield "chase/Base1ldst", SimulationConfig.base_1ldst(), chase, 0.0
    tiny = replace(
        SimulationConfig.base_2ld1st(),
        pipeline=PipelineParameters(
            rob_entries=8, fetch_width=2, issue_width=2, commit_width=1
        ),
    )
    yield "tiny-pipeline", tiny, _random_mix_trace(99, length=200), 0.0

    families = (
        SimulationConfig.base_1ldst(),
        SimulationConfig.base_2ld1st(),
        SimulationConfig.malec(),
    )
    idle_gap = _chase_trace(60, tail_store=True)
    busy = generate_trace(benchmark_profile("gzip"), instructions=1500)
    for config in families:
        yield f"idle-gap/{config.name}", config, idle_gap, 0.0
        yield f"busy/{config.name}", config, busy, 0.0
    for seed in range(6):
        trace = _burst_trace(seed)
        for config in families:
            yield f"burst/{seed}/{config.name}", config, trace, 0.0

    fig4 = SimulationConfig.figure4_suite()
    for bench in ("gzip", "swim", "djpeg"):
        trace = generate_trace(benchmark_profile(bench), instructions=1200)
        for config in fig4:
            yield f"fig4-mini/{bench}/{config.name}", config, trace, 0.3
        if bench == "gzip":
            yield "fig4-pick/gzip", SimulationConfig.base_2ld1st(), trace, 0.0
    for bench in SYNTHETIC_BENCHMARKS:
        trace = generate_trace(benchmark_profile(bench), instructions=1200)
        yield f"synthetic/{bench}", malec, trace, 0.0
    for seed in range(8):
        rng = random.Random(seed ^ 0xC0FFEE)
        trace = generate_trace(_random_profile(seed), instructions=700)
        config = fig4[rng.randrange(len(fig4))]
        yield f"random-profile/{seed}", config, trace, rng.choice((0.0, 0.25))


def identity_record(result: SimulationResult) -> dict:
    """Counts plus the sha256 of the canonical (store-serialized) result."""
    canonical = json.dumps(result_to_dict(result), indent=1, sort_keys=True)
    return {
        "cycles": result.cycles,
        "instructions": result.instructions,
        "loads": result.loads,
        "stores": result.stores,
        "sha256": hashlib.sha256(canonical.encode("utf-8")).hexdigest(),
    }


def regenerate_pipeline_identity(path: Path) -> int:
    """Pin every identity case (see :func:`pipeline_identity_cases`)."""
    cases = {
        name: identity_record(
            run_configuration(config, trace, warmup_fraction=warmup)
        )
        for name, config, trace, warmup in pipeline_identity_cases()
    }
    path.write_text(json.dumps({"cases": cases}, indent=1, sort_keys=True) + "\n")
    return len(cases)


if __name__ == "__main__":
    golden_dir = Path(__file__).parent
    for filename, write in (
        ("fig4_mini.json", regenerate),
        ("stress_profiles.json", regenerate_stress),
        ("pipeline_identity.json", regenerate_pipeline_identity),
    ):
        target = golden_dir / filename
        count = write(target)
        print(f"wrote {target} ({count} records)")
