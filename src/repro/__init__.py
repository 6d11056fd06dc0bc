"""repro: a reproduction of "MALEC: A Multiple Access Low Energy Cache".

MALEC (Boettcher, Gabrielli, Al-Hashimi, Kershaw — DATE 2013) is an L1 data
cache interface for out-of-order superscalar processors that restricts the
data memory subsystem to one page per cycle, shares address translations
among all accesses of that page, merges loads to the same cache line, and
determines cache ways through per-page way tables so that most accesses
bypass the tag arrays.

This package implements the complete system in Python:

* :mod:`repro.core` — the paper's contribution: Input Buffer, Arbitration
  Unit, way tables (uWT/WT) and the prior-art WDU;
* :mod:`repro.cache`, :mod:`repro.tlb`, :mod:`repro.buffers`,
  :mod:`repro.memory` — the substrates (banked L1, L2, DRAM, uTLB/TLB, page
  table, load/store/merge buffers);
* :mod:`repro.interfaces` — the three Table I configurations (Base1ldst,
  Base2ld1st, MALEC);
* :mod:`repro.cpu` — a cycle-level out-of-order memory pipeline;
* :mod:`repro.energy` — a CACTI-like analytic energy model;
* :mod:`repro.workloads` — synthetic SPEC CPU2000 / MediaBench2 stand-ins;
* :mod:`repro.sim` and :mod:`repro.analysis` — the simulator, sweep results
  and locality analyses behind every figure and table of the paper;
* :mod:`repro.campaign` and :mod:`repro.dse` — the scale layers: parallel,
  resumable sweep campaigns and design-space exploration with Pareto
  frontiers over the energy/performance plane.

Quick start::

    from repro import SimulationConfig, run_configuration
    from repro.workloads import benchmark_profile, generate_trace

    trace = generate_trace(benchmark_profile("gzip"), instructions=5000)
    base = run_configuration(SimulationConfig.base_1ldst(), trace)
    malec = run_configuration(SimulationConfig.malec(), trace)
    print(malec.cycles / base.cycles)          # normalized execution time
    print(malec.energy.total_pj / base.energy.total_pj)
"""

from repro.api import RunOptions
from repro.memory.address import AddressLayout, DEFAULT_LAYOUT
from repro.sim.config import (
    CacheParameters,
    InterfaceKind,
    MalecParameters,
    PipelineParameters,
    SimulationConfig,
    TLBParameters,
)
from repro.sim.simulator import SimulationResult, Simulator, run_configuration
from repro.stats import StatCounters
from repro.analysis.experiments import ExperimentResults
from repro.analysis.locality import PageLocalityAnalyzer
from repro.campaign import (
    CampaignCell,
    CampaignSpec,
    ParallelExecutor,
    ResultStore,
    campaign_preset,
    results_from_store,
    summarize_store,
)
from repro.dse import DseResult, SearchSpace, run_dse, space_preset

__version__ = "1.0.0"

__all__ = [
    "AddressLayout",
    "DEFAULT_LAYOUT",
    "CacheParameters",
    "InterfaceKind",
    "MalecParameters",
    "PipelineParameters",
    "SimulationConfig",
    "TLBParameters",
    "RunOptions",
    "SimulationResult",
    "Simulator",
    "run_configuration",
    "StatCounters",
    "ExperimentResults",
    "PageLocalityAnalyzer",
    "CampaignCell",
    "CampaignSpec",
    "ParallelExecutor",
    "ResultStore",
    "campaign_preset",
    "results_from_store",
    "summarize_store",
    "__version__",
]
