"""Shared fixtures for the benchmark harness.

Every file in this directory regenerates one table or figure of the paper.
The full paper runs 1-billion instruction Simpoint phases of 38 benchmarks;
this harness uses the synthetic stand-ins with much shorter traces and a
representative subset of benchmarks per suite so the whole harness
completes in a few minutes.  The absolute
numbers therefore differ from the paper; the *shape* (who wins, by roughly
what factor) is what the assertions check and what the printed tables show.

Run with ``PYTHONPATH=src python -m pytest benchmarks/`` (add ``-s`` to see
the regenerated tables).
"""

from __future__ import annotations

import pytest

from repro.analysis.experiments import ExperimentResults
from repro.campaign import CampaignSpec, ParallelExecutor
from repro.sim.config import SimulationConfig

#: representative benchmarks per suite (kept small so the harness stays fast;
#: extend to repro.workloads.ALL_BENCHMARKS for a full sweep)
FIG4_BENCHMARKS = [
    # SPEC-INT
    "gzip", "gcc", "mcf", "gap", "twolf",
    # SPEC-FP
    "swim", "mgrid", "art", "equake", "mesa",
    # MediaBench2
    "djpeg", "h263dec", "mpeg2dec", "h264enc",
]

#: trace length per benchmark (instructions) and warm-up fraction
TRACE_INSTRUCTIONS = 5_000
WARMUP_FRACTION = 0.3

BASELINE = "Base1ldst"


@pytest.fixture(scope="session")
def figure4_results() -> ExperimentResults:
    """Run the five Fig. 4 configurations over the benchmark subset once."""
    spec = CampaignSpec(
        name="figure4",
        configurations=tuple(SimulationConfig.figure4_suite()),
        benchmarks=tuple(FIG4_BENCHMARKS),
        instructions=TRACE_INSTRUCTIONS,
        warmup_fraction=WARMUP_FRACTION,
    )
    return ParallelExecutor(jobs=1).run(spec)
