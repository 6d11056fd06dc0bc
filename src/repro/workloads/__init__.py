"""Workload generation: synthetic traces standing in for SPEC and MediaBench2.

The paper drives its evaluation with the most representative 1-billion
instruction phases of SPEC CPU2000 and MediaBench2 (Sec. III).  Those traces
are not redistributable and gem5 is unavailable, so this package generates
*synthetic* instruction traces whose memory behaviour is calibrated to the
statistics the paper reports:

* memory references make up ~40 % of the instruction stream (45 % for
  SPEC-INT, 40 % for SPEC-FP, 37 % for MediaBench2) with a 2:1 load/store
  ratio;
* ~70 % of loads are directly followed by another load to the same page, and
  allowing 1/2/3 intermediate accesses raises the ratio to ~85/90/92 %
  (Fig. 1);
* ~46 % of loads are directly followed by a load to the same cache line;
* individual benchmarks keep their published character: ``mcf`` and ``art``
  are streaming with very high miss rates, ``gap`` has long dependence chains
  and a 37 % load share, ``djpeg``/``h263dec`` have small, highly local
  working sets, ``mgrid`` has poor intra-line locality, and so on.

Each benchmark is described by a :class:`~repro.workloads.profiles.BenchmarkProfile`
composed of weighted access streams; the
:class:`~repro.workloads.synthetic.SyntheticTraceGenerator` expands a profile
into a deterministic :class:`~repro.workloads.trace.MemoryTrace`.
"""

from repro.workloads.trace import MemoryTrace
from repro.workloads.columnar import ColumnarTrace
from repro.workloads.profiles import BenchmarkProfile, StreamSpec, StreamKind
from repro.workloads.synthetic import SyntheticTraceGenerator, generate_trace
from repro.workloads.binfmt import (
    TraceFormatError,
    dump_rtrc,
    load_rtrc,
    trace_fingerprint,
)
from repro.workloads.ingest import (
    TraceParseError,
    interleave,
    load_trace,
    parse_csv,
    parse_dinero,
    parse_lackey,
    skip_warmup,
    subsample,
    window,
)
from repro.workloads.registry import (
    TraceHandle,
    register_trace,
    registered_columnar,
    registered_handle,
    registered_trace,
)
from repro.workloads.suites import (
    ALL_BENCHMARKS,
    ALL_SUITES,
    EXTENDED_BENCHMARKS,
    LOCALITY_DIVERSE_BENCHMARKS,
    MEDIABENCH2,
    SPEC_FP,
    SPEC_INT,
    STRESS,
    STRESS_BENCHMARKS,
    SUITES,
    SYNTHETIC,
    SYNTHETIC_BENCHMARKS,
    benchmark_profile,
    suite_profiles,
)

__all__ = [
    "MemoryTrace",
    "ColumnarTrace",
    "BenchmarkProfile",
    "StreamSpec",
    "StreamKind",
    "SyntheticTraceGenerator",
    "generate_trace",
    "TraceFormatError",
    "dump_rtrc",
    "load_rtrc",
    "trace_fingerprint",
    "TraceParseError",
    "interleave",
    "load_trace",
    "parse_csv",
    "parse_dinero",
    "parse_lackey",
    "skip_warmup",
    "subsample",
    "window",
    "TraceHandle",
    "register_trace",
    "registered_columnar",
    "registered_handle",
    "registered_trace",
    "ALL_BENCHMARKS",
    "ALL_SUITES",
    "EXTENDED_BENCHMARKS",
    "LOCALITY_DIVERSE_BENCHMARKS",
    "MEDIABENCH2",
    "SPEC_FP",
    "SPEC_INT",
    "STRESS",
    "STRESS_BENCHMARKS",
    "SUITES",
    "SYNTHETIC",
    "SYNTHETIC_BENCHMARKS",
    "benchmark_profile",
    "suite_profiles",
]
