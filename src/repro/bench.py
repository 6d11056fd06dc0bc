"""Performance micro-harness behind ``repro bench``.

The ROADMAP's north star is a simulator that runs "as fast as the hardware
allows", which only means something if speed is *measured, recorded and
comparable across PRs*.  This module times the three workloads that dominate
every real use of the repository:

``trace_generation``
    Synthesising the per-benchmark instruction traces (pure workload-model
    cost, no simulation).

``single_config_run``
    One (configuration, trace) simulation — the unit of work every sweep
    parallelises — using the MALEC configuration on ``gzip``.

``fig4_mini_sweep``
    The ``fig4-mini`` campaign preset through the serial executor: the
    smallest end-to-end sweep that exercises trace caching, all five Fig. 4
    configurations and result assembly.

``figure4_gzip_djpeg_mcf``
    The exact workload of ``repro figure4 gzip djpeg mcf --instructions
    4000`` (the repository's canonical perf-acceptance command), run through
    the campaign engine as that command runs it.  Unlike ``fig4-mini`` it
    includes ``mcf``, whose pointer-chasing stalls exercise the pipeline's
    idle fast-forward.

Each scenario runs ``repeats`` times and reports the *minimum* wall time
(the usual best-of-N convention: the minimum is the least noisy estimator of
the true cost on a time-shared machine).  Results are written as
``BENCH_<rev>.json`` — see ``benchmarks/perf/README.md`` for the schema and
the workflow expected of optimisation PRs (attach before/after files).

The harness deliberately depends only on the public simulator API, so the
numbers survive internal rewrites — which is the point: the hot-path
refactors this repository undergoes must keep results bit-identical (the
golden tests check that) while moving these numbers down.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

from repro.api import RunOptions
from repro.campaign.executor import ParallelExecutor
from repro.campaign.spec import CampaignSpec, campaign_preset
from repro.obs.hostinfo import detect_revision, host_metadata
from repro.sim.config import SimulationConfig
from repro.sim.simulator import run_configuration
from repro.workloads.suites import benchmark_profile
from repro.workloads.synthetic import generate_trace

#: benchmarks timed by the trace-generation scenario (one per suite)
TRACE_BENCHMARKS = ("gzip", "djpeg", "mcf")

#: benchmark driven through the single-configuration scenario
SINGLE_RUN_BENCHMARK = "gzip"

#: file-name prefix of every result file written by the harness
BENCH_PREFIX = "BENCH_"

#: current schema version of the emitted JSON
SCHEMA_VERSION = 1


@dataclass
class ScenarioResult:
    """Timing of one scenario: every repeat plus derived best-of-N values."""

    name: str
    runs: List[float]
    #: scenario-specific metadata (instruction counts, cycles, cells, ...)
    details: Dict[str, object] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        """Best (minimum) wall time across the repeats."""
        return min(self.runs)

    def as_dict(self) -> dict:
        """JSON-able representation stored in the ``BENCH_*.json`` file."""
        payload = dict(self.details)
        # Reserved keys always reflect the timing, never scenario details.
        payload["seconds"] = self.seconds
        payload["runs"] = self.runs
        return payload


def _time_repeats(repeats: int, workload: Callable[[], Dict[str, object]]):
    """Run ``workload`` ``repeats`` times; return (wall times, last details)."""
    runs: List[float] = []
    details: Dict[str, object] = {}
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        details = workload() or {}
        runs.append(time.perf_counter() - start)
    return runs, details


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------
def bench_trace_generation(instructions: int, repeats: int) -> ScenarioResult:
    """Time synthesising the traces of :data:`TRACE_BENCHMARKS`."""

    def workload() -> Dict[str, object]:
        total = 0
        for name in TRACE_BENCHMARKS:
            total += len(generate_trace(benchmark_profile(name), instructions))
        return {"benchmarks": list(TRACE_BENCHMARKS), "instructions": total}

    runs, details = _time_repeats(repeats, workload)
    result = ScenarioResult(name="trace_generation", runs=runs, details=details)
    result.details["instructions_per_second"] = (
        details["instructions"] / result.seconds if result.seconds else 0.0
    )
    return result


def bench_single_config_run(
    instructions: int, repeats: int, warmup_fraction: float = 0.3
) -> ScenarioResult:
    """Time one MALEC simulation of :data:`SINGLE_RUN_BENCHMARK`."""
    trace = generate_trace(
        benchmark_profile(SINGLE_RUN_BENCHMARK), instructions=instructions
    )

    def workload() -> Dict[str, object]:
        outcome = run_configuration(
            SimulationConfig.malec(), trace, warmup_fraction=warmup_fraction
        )
        return {
            "benchmark": SINGLE_RUN_BENCHMARK,
            "configuration": outcome.config_name,
            "instructions": instructions,
            "cycles": outcome.cycles,
        }

    runs, details = _time_repeats(repeats, workload)
    return ScenarioResult(name="single_config_run", runs=runs, details=details)


def bench_single_config_run_kernel(
    instructions: int, repeats: int, warmup_fraction: float = 0.3
) -> ScenarioResult:
    """Time the specialized kernel against the generic interpreter loop.

    The timed workload is :func:`bench_single_config_run`'s simulation with
    ``kernel="specialized"`` pinned; the same run with ``kernel="generic"``
    is timed alongside (same best-of-N) and reported in the details as
    ``generic_seconds`` / ``speedup_vs_generic``, documenting what the
    per-configuration generated kernels buy over the interpreted loop.
    Both runs are bit-identical by construction (enforced by
    ``tests/test_kernel_differential.py``); the compile cost is excluded by
    prewarming the kernel cache before timing, matching steady-state use.
    """
    from repro.sim.kernels import prewarm

    config = SimulationConfig.malec()
    trace = generate_trace(
        benchmark_profile(SINGLE_RUN_BENCHMARK), instructions=instructions
    )
    prewarm([config])

    def workload() -> Dict[str, object]:
        outcome = run_configuration(
            config,
            trace,
            warmup_fraction=warmup_fraction,
            options=RunOptions(kernel="specialized"),
        )
        return {
            "benchmark": SINGLE_RUN_BENCHMARK,
            "configuration": outcome.config_name,
            "instructions": instructions,
            "cycles": outcome.cycles,
        }

    def generic_workload() -> Dict[str, object]:
        outcome = run_configuration(
            config,
            trace,
            warmup_fraction=warmup_fraction,
            options=RunOptions(kernel="generic"),
        )
        return {"cycles": outcome.cycles}

    runs, details = _time_repeats(repeats, workload)
    generic_runs, _ = _time_repeats(repeats, generic_workload)
    result = ScenarioResult(name="single_config_run_kernel", runs=runs, details=details)
    generic_seconds = min(generic_runs)
    result.details["generic_seconds"] = generic_seconds
    result.details["speedup_vs_generic"] = (
        generic_seconds / result.seconds if result.seconds else 0.0
    )
    return result


def bench_fig4_mini_sweep(instructions: int, repeats: int) -> ScenarioResult:
    """Time the ``fig4-mini`` preset through the campaign engine.

    Runs with the engine's default parallelism (one worker per core; on a
    single-core host this is the serial path), i.e. exactly what
    ``repro sweep fig4-mini`` costs a user.
    """
    spec = campaign_preset("fig4-mini").with_overrides(instructions=instructions)

    def workload() -> Dict[str, object]:
        executor = ParallelExecutor()
        results = executor.run(spec)
        return {
            "preset": "fig4-mini",
            "instructions": instructions,
            "cells": len(spec.cells()),
            "benchmarks": len(results.runs),
            "jobs": executor.jobs,
            "used_pool": executor.used_pool,
        }

    runs, details = _time_repeats(repeats, workload)
    return ScenarioResult(name="fig4_mini_sweep", runs=runs, details=details)


def bench_fig4_mini_sweep_serial(instructions: int, repeats: int) -> ScenarioResult:
    """Time the ``fig4-mini`` preset through the *serial* executor path.

    The single-process signal: tracks the simulator hot path itself without
    pool scheduling, regardless of the host's core count.
    """
    spec = campaign_preset("fig4-mini").with_overrides(instructions=instructions)

    def workload() -> Dict[str, object]:
        executor = ParallelExecutor(jobs=1)
        results = executor.run(spec)
        return {
            "preset": "fig4-mini",
            "instructions": instructions,
            "cells": len(spec.cells()),
            "benchmarks": len(results.runs),
        }

    runs, details = _time_repeats(repeats, workload)
    return ScenarioResult(name="fig4_mini_sweep_serial", runs=runs, details=details)


def bench_trace_decode(instructions: int, repeats: int) -> ScenarioResult:
    """Time reading a trace from an ``.rtrc`` file against the JSONL reader.

    The timed workload is
    :meth:`~repro.workloads.columnar.ColumnarTrace.load`: the file read plus
    the column lift a campaign/DSE pool worker pays per trace.  The JSONL
    read of the same trace is timed alongside (same best-of-N) and reported
    in the details as ``jsonl_seconds``/``speedup_vs_jsonl``, documenting
    what the binary format buys over the line-per-instruction text form.
    """
    import tempfile

    from repro.workloads.binfmt import dump_rtrc
    from repro.workloads.columnar import ColumnarTrace
    from repro.workloads.ingest import dump_jsonl, load_trace

    trace = generate_trace(
        benchmark_profile(SINGLE_RUN_BENCHMARK), instructions=instructions
    )
    with tempfile.TemporaryDirectory() as tmp:
        rtrc_path = Path(tmp) / "bench.rtrc"
        jsonl_path = Path(tmp) / "bench.jsonl"
        dump_rtrc(trace, rtrc_path)
        dump_jsonl(trace, jsonl_path)

        def workload() -> Dict[str, object]:
            decoded = ColumnarTrace.load(rtrc_path)
            return {
                "benchmark": SINGLE_RUN_BENCHMARK,
                "instructions": len(decoded),
                "rtrc_bytes": rtrc_path.stat().st_size,
            }

        runs, details = _time_repeats(repeats, workload)
        jsonl_runs, _ = _time_repeats(
            repeats, lambda: {"n": len(load_trace(jsonl_path))}
        )
    result = ScenarioResult(name="trace_decode_rtrc", runs=runs, details=details)
    jsonl_seconds = min(jsonl_runs)
    result.details["jsonl_seconds"] = jsonl_seconds
    result.details["speedup_vs_jsonl"] = (
        jsonl_seconds / result.seconds if result.seconds else 0.0
    )
    return result


def bench_trace_columnar_decode(instructions: int, repeats: int) -> ScenarioResult:
    """Time the columnar trace lift a campaign pool worker pays per payload.

    The timed workload is
    :meth:`~repro.workloads.columnar.ColumnarTrace.from_rtrc_bytes` plus the
    batched :meth:`~repro.workloads.columnar.ColumnarTrace.pipeline_arrays`
    interpretation pass over the shipped ``.rtrc`` bytes.
    """
    from repro.workloads.columnar import ColumnarTrace

    payload = generate_trace(
        benchmark_profile(SINGLE_RUN_BENCHMARK), instructions=instructions
    ).to_bytes()

    def workload() -> Dict[str, object]:
        view = ColumnarTrace.from_rtrc_bytes(payload)
        view.pipeline_arrays()
        return {
            "benchmark": SINGLE_RUN_BENCHMARK,
            "instructions": len(view),
            "rtrc_bytes": len(payload),
        }

    runs, details = _time_repeats(repeats, workload)
    return ScenarioResult(name="trace_columnar_decode", runs=runs, details=details)


def bench_figure4_acceptance(instructions: int, repeats: int) -> ScenarioResult:
    """Time the ``repro figure4 gzip djpeg mcf`` workload (acceptance metric).

    The spec is the one ``repro figure4`` builds; as in ``fig4_mini_sweep``,
    repeats after the first reuse the traces in the process-wide cache.
    """
    benchmarks = ("gzip", "djpeg", "mcf")
    spec = CampaignSpec(
        name="figure4",
        configurations=tuple(SimulationConfig.figure4_suite()),
        benchmarks=benchmarks,
        instructions=instructions,
        warmup_fraction=0.3,
    )

    def workload() -> Dict[str, object]:
        results = ParallelExecutor().run(spec)
        return {
            "benchmarks": list(benchmarks),
            "instructions": instructions,
            "cells": 5 * len(benchmarks),
            "benchmarks_completed": len(results.runs),
        }

    runs, details = _time_repeats(repeats, workload)
    return ScenarioResult(name="figure4_gzip_djpeg_mcf", runs=runs, details=details)


# ----------------------------------------------------------------------
# Harness driver
# ----------------------------------------------------------------------
#: scenario name -> builder; the canonical ordering of a full bench run
SCENARIO_NAMES = (
    "trace_generation",
    "single_config_run",
    "single_config_run_kernel",
    "fig4_mini_sweep",
    "fig4_mini_sweep_serial",
    "figure4_gzip_djpeg_mcf",
    "trace_decode_rtrc",
    "trace_columnar_decode",
)


def _scenario_builders(instructions: int, sweep_instructions: int, repeats: int):
    return {
        "trace_generation": lambda: bench_trace_generation(instructions, repeats),
        "single_config_run": lambda: bench_single_config_run(instructions, repeats),
        "single_config_run_kernel": lambda: bench_single_config_run_kernel(
            instructions, repeats
        ),
        "fig4_mini_sweep": lambda: bench_fig4_mini_sweep(
            sweep_instructions, repeats
        ),
        "fig4_mini_sweep_serial": lambda: bench_fig4_mini_sweep_serial(
            sweep_instructions, repeats
        ),
        "figure4_gzip_djpeg_mcf": lambda: bench_figure4_acceptance(
            instructions, repeats
        ),
        "trace_decode_rtrc": lambda: bench_trace_decode(instructions, repeats),
        "trace_columnar_decode": lambda: bench_trace_columnar_decode(
            instructions, repeats
        ),
    }


def run_benchmarks(
    instructions: int = 4000,
    sweep_instructions: int = 2000,
    repeats: int = 3,
    quick: bool = False,
    label: Optional[str] = None,
    scenarios: Optional[List[str]] = None,
) -> dict:
    """Execute the scenarios and return the complete report dictionary.

    ``quick`` shrinks the workloads to a few hundred instructions and one
    repeat — enough for CI to prove the harness runs, useless for comparing
    performance.  ``scenarios`` restricts the run to the named subset (in
    canonical order); unknown names raise ``ValueError``.
    """
    if quick:
        instructions = min(instructions, 600)
        sweep_instructions = min(sweep_instructions, 400)
        repeats = 1
    revision = detect_revision()
    builders = _scenario_builders(instructions, sweep_instructions, repeats)
    selected = list(SCENARIO_NAMES) if scenarios is None else list(scenarios)
    unknown = [name for name in selected if name not in builders]
    if unknown:
        raise ValueError(
            f"unknown bench scenario(s) {', '.join(sorted(unknown))}; "
            f"choose from {', '.join(SCENARIO_NAMES)}"
        )
    ordered = [name for name in SCENARIO_NAMES if name in selected]
    results = [builders[name]() for name in ordered]
    return {
        "schema": SCHEMA_VERSION,
        "label": label or revision,
        "revision": revision,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "host": host_metadata(revision),
        "params": {
            "instructions": instructions,
            "sweep_instructions": sweep_instructions,
            "repeats": repeats,
            "quick": quick,
        },
        "scenarios": {result.name: result.as_dict() for result in results},
        "total_seconds": sum(result.seconds for result in results),
    }


def default_output_dir() -> Path:
    """The standard location for bench records: ``benchmarks/perf`` at the
    repository root.

    Resolved from this module's location so results land in the repository
    regardless of the current working directory (a cwd-relative default is
    easy to lose); falls back to a cwd-relative path for installed copies
    that have no repository checkout around them.
    """
    root = Path(__file__).resolve().parents[2]
    candidate = root / "benchmarks" / "perf"
    if (root / "benchmarks").is_dir() or (root / ".git").exists():
        return candidate
    return Path("benchmarks") / "perf"


def write_report(
    report: dict, out_dir: Union[str, Path], out_file: Optional[Union[str, Path]] = None
) -> Path:
    """Write ``report`` as ``BENCH_<label>.json`` under ``out_dir``.

    ``out_file`` overrides the full output path (the ``--output`` flag).
    """
    if out_file is not None:
        path = Path(out_file)
        path.parent.mkdir(parents=True, exist_ok=True)
    else:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        safe_label = "".join(
            ch if (ch.isalnum() or ch in "-_.") else "-" for ch in str(report["label"])
        )
        path = out / f"{BENCH_PREFIX}{safe_label}.json"
    path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return path


def format_report(report: dict) -> str:
    """One-line-per-scenario human-readable summary."""
    lines = [
        f"bench {report['label']} (rev {report['revision']}, "
        f"python {report['python']}, repeats {report['params']['repeats']})"
    ]
    for name, scenario in report["scenarios"].items():
        lines.append(f"  {name:<20s} {scenario['seconds'] * 1000.0:>10.1f} ms")
    lines.append(f"  {'total':<20s} {report['total_seconds'] * 1000.0:>10.1f} ms")
    return "\n".join(lines)


def compare_host_warnings(before: dict, after: dict) -> List[str]:
    """Host-metadata mismatches that make ``before``/``after`` incomparable.

    Revision is excluded on purpose — comparing two revisions is the whole
    point of ``--compare``.  Reports written before host metadata existed
    fall back to their top-level python/platform fields.
    """
    fallback_keys = ("python", "platform")
    old = before.get("host") or {k: before.get(k) for k in fallback_keys}
    new = after.get("host") or {k: after.get(k) for k in fallback_keys}
    warnings: List[str] = []
    for key in ("cpu_count", "machine", "platform", "python"):
        old_value, new_value = old.get(key), new.get(key)
        if old_value is None or new_value is None:
            continue
        if old_value != new_value:
            warnings.append(
                f"host {key} differs: {old_value} (before) vs {new_value} "
                "(after) — timings are not directly comparable"
            )
    return warnings


def compare_reports(
    before: dict, after: dict, scenarios: Optional[List[str]] = None
) -> str:
    """Speedup table between two reports (``before`` / ``after``)."""
    lines = [f"speedup {before['label']} -> {after['label']}"]
    for name, scenario in after["scenarios"].items():
        if scenarios is not None and name not in scenarios:
            continue
        reference = before["scenarios"].get(name)
        if reference is None or not scenario["seconds"]:
            continue
        ratio = reference["seconds"] / scenario["seconds"]
        lines.append(
            f"  {name:<24s} {reference['seconds'] * 1000.0:>10.1f} ms -> "
            f"{scenario['seconds'] * 1000.0:>10.1f} ms   ({ratio:.2f}x)"
        )
    return "\n".join(lines)


def find_regressions(
    before: dict,
    after: dict,
    threshold_pct: float,
    scenarios: Optional[List[str]] = None,
) -> List[str]:
    """Scenarios of ``after`` slower than ``before`` by more than the threshold.

    Only scenarios present in both reports are considered (a renamed or new
    scenario has no baseline to regress against); ``scenarios`` restricts
    the gate further — the CI disabled-overhead check gates only the
    simulator hot-path scenarios at a tight threshold.
    """
    regressions: List[str] = []
    for name, scenario in after["scenarios"].items():
        if scenarios is not None and name not in scenarios:
            continue
        reference = before["scenarios"].get(name)
        if reference is None or not reference["seconds"]:
            continue
        slowdown_pct = (scenario["seconds"] / reference["seconds"] - 1.0) * 100.0
        if slowdown_pct > threshold_pct:
            regressions.append(f"{name}: {slowdown_pct:+.1f}% slower")
    return regressions


def bench_history(directory: Union[str, Path]) -> List[dict]:
    """Every readable ``BENCH_*.json`` under ``directory``, oldest first.

    Records sort by their ``timestamp`` field (filename as a tiebreak) so
    the table reads as a trajectory; unreadable or non-report files are
    skipped rather than aborting the whole history.
    """
    records = []
    for path in sorted(Path(directory).glob(f"{BENCH_PREFIX}*.json")):
        try:
            report = load_report(path)
        except (OSError, ValueError):
            continue
        records.append((str(report.get("timestamp", "")), path.name, report))
    records.sort(key=lambda item: (item[0], item[1]))
    return [report for _, _, report in records]


def format_history(reports: List[dict], scenarios: Optional[List[str]] = None) -> str:
    """Per-scenario trajectory table across committed bench records.

    One row per record (oldest first), one column per scenario in canonical
    order, best-of-N milliseconds.  Records taken on a different host than
    the most recent one are flagged with ``*``: their absolute numbers
    measure that host, not the code, so they break the trajectory.
    """
    from repro.analysis.reporting import format_table

    if not reports:
        return "no bench records found"
    names = [
        name
        for name in SCENARIO_NAMES
        if (scenarios is None or name in scenarios)
        and any(name in report.get("scenarios", {}) for report in reports)
    ]
    latest = reports[-1]
    flagged = False
    rows: List[List[object]] = []
    for report in reports:
        mismatched = bool(compare_host_warnings(report, latest))
        flagged = flagged or mismatched
        row: List[object] = [
            str(report.get("label", "?")) + ("*" if mismatched else ""),
            str(report.get("timestamp", ""))[:10],
        ]
        for name in names:
            scenario = report.get("scenarios", {}).get(name)
            row.append(f"{scenario['seconds'] * 1000.0:.1f}" if scenario else "-")
        rows.append(row)
    lines = [
        f"bench history: {len(reports)} records, milliseconds, oldest first",
        format_table(["record", "when"] + names, rows),
    ]
    if flagged:
        lines.append(
            "* host differs from the most recent record; timings not comparable"
        )
    return "\n".join(lines)


def load_report(path: Union[str, Path]) -> dict:
    """Read a ``BENCH_*.json`` file, validating the schema version."""
    report = json.loads(Path(path).read_text())
    if not isinstance(report, dict) or "scenarios" not in report:
        raise ValueError(f"{path}: not a bench report")
    return report


def _load_report_checked(path: Union[str, Path]) -> Optional[dict]:
    """Load a comparison report, or ``None`` after printing a usage error.

    Missing files, unreadable files and corrupt/non-report JSON are usage
    errors of ``--compare`` (exit 2), matching how ``sweep``/``dse`` reject
    unknown presets — never a traceback.
    """
    try:
        return load_report(path)
    except FileNotFoundError:
        print(f"repro bench: comparison file not found: {path}", file=sys.stderr)
    except OSError as error:
        print(f"repro bench: cannot read {path}: {error}", file=sys.stderr)
    except json.JSONDecodeError as error:
        print(f"repro bench: {path} is not valid JSON: {error}", file=sys.stderr)
    except ValueError as error:
        print(f"repro bench: {error}", file=sys.stderr)
    return None


def main_bench(args) -> int:
    """Implementation of the ``repro bench`` CLI sub-command.

    ``--compare OLD.json NEW.json`` is the pure comparison mode: nothing is
    benchmarked, the two reports are compared and the exit status reflects
    the ``--threshold`` regression gate (the CI bench-regression job).  With
    a single file, the benchmarks run first and the fresh report is compared
    against the file; the gate then only applies when ``--threshold`` was
    given explicitly (a gate on a live run is an opt-in, since two runs on a
    shared machine are noisier than two committed records).
    """
    compare = args.compare or []
    threshold = args.threshold
    scenarios = getattr(args, "scenarios", None)
    if getattr(args, "history", False):
        directory = args.out if args.out is not None else default_output_dir()
        if not Path(directory).is_dir():
            print(f"repro bench: no bench directory at {directory}", file=sys.stderr)
            return 2
        reports = bench_history(directory)
        if not reports:
            print(
                f"repro bench: no {BENCH_PREFIX}*.json records in {directory}",
                file=sys.stderr,
            )
            return 2
        print(format_history(reports, scenarios=scenarios))
        return 0
    if len(compare) > 2:
        print("--compare takes at most two files (OLD.json NEW.json)")
        return 2

    if len(compare) == 2:
        before = _load_report_checked(compare[0])
        after = _load_report_checked(compare[1])
        if before is None or after is None:
            return 2
        for warning in compare_host_warnings(before, after):
            print(f"repro bench: warning: {warning}", file=sys.stderr)
        print(compare_reports(before, after, scenarios=scenarios))
        regressions = find_regressions(
            before,
            after,
            threshold if threshold is not None else 20.0,
            scenarios=scenarios,
        )
        if regressions:
            print("regression beyond threshold:")
            for line in regressions:
                print(f"  {line}")
            return 1
        return 0

    try:
        report = run_benchmarks(
            instructions=args.instructions,
            sweep_instructions=args.sweep_instructions,
            repeats=args.repeats,
            quick=args.quick,
            label=args.label,
            scenarios=scenarios,
        )
    except ValueError as error:
        # Unknown --scenarios names: a usage error, not a traceback.
        print(f"repro bench: {error}", file=sys.stderr)
        return 2
    print(format_report(report))
    if not args.no_write:
        out_dir = args.out if args.out is not None else default_output_dir()
        path = write_report(report, out_dir, out_file=args.output)
        print(f"wrote {path}")
    if compare:
        before = _load_report_checked(compare[0])
        if before is None:
            return 2
        for warning in compare_host_warnings(before, report):
            print(f"repro bench: warning: {warning}", file=sys.stderr)
        print(compare_reports(before, report, scenarios=scenarios))
        if threshold is not None:
            regressions = find_regressions(
                before, report, threshold, scenarios=scenarios
            )
            if regressions:
                print("regression beyond threshold:")
                for line in regressions:
                    print(f"  {line}")
                return 1
    return 0
