"""Command-line front end: ``python -m repro <command>``.

The sub-commands cover the common workflows without writing any Python (see
the top-level ``README.md`` for a full walk-through and the campaign
directory layout):

``compare``
    Run one benchmark through Base1ldst, Base2ld1st and MALEC and print
    normalized execution time and energy (the quickstart as a command).  The
    three cells run through the campaign engine, serially, on the traces
    ``figure4`` uses.

``figure4``
    Sweep the five Fig. 4 configurations over one or more benchmarks and
    print the per-benchmark and geometric-mean normalized results
    (``--jobs N`` fans the sweep out over worker processes).

``sweep``
    Run a named campaign preset (``fig4``, ``fig4-mini``, ``sec6d``) through
    the parallel campaign engine.  With ``--store URL`` every
    (configuration, benchmark) cell is persisted as one record and a
    repeated invocation resumes — already-completed cells are skipped.

``dse``
    Explore a named configuration search space (``malec-mini``,
    ``malec-sensitivity``) with a pluggable strategy (``grid``, ``random``,
    ``halving``) and print the Pareto frontier over the selected objectives
    (normalized runtime, L1-subsystem energy, energy-delay product).  All
    evaluations flow through the campaign store (``--store URL``), so an
    interrupted exploration resumes and strategies dedupe each other's
    cells; ``--csv FILE`` (default ``<store dir>/frontier.csv``) writes the
    frontier artifact.

``ingest``
    Work with externally captured memory traces: ``convert`` parses a
    valgrind-lackey / Dinero ``.din`` / CSV / JSONL file (gzip-aware) into
    the compact binary ``.rtrc`` format, with optional warm-up skip, stride
    subsampling and region-of-interest windowing; ``inspect`` prints a
    trace's statistics and content fingerprint; ``interleave`` round-robins
    several traces into one multiprogrammed workload.  ``figure4``,
    ``sweep`` and ``dse`` then accept the resulting files directly through
    ``--trace-file`` (repeatable), running ingested traces alongside — or
    instead of — the synthetic benchmarks.

``locality``
    Print the Sec. III / Fig. 1 page- and line-locality statistics of one or
    more benchmarks.

``obs``
    Query the telemetry journals a campaign store accumulates
    (``telemetry.jsonl``, written by ``--metrics``/``--journal`` sweeps):
    ``history`` tabulates every recorded run (when, host, cells, cells/sec),
    ``compare RUN_A RUN_B`` prints per-cell wall-time deltas and flags
    regressions beyond ``--threshold``, ``cells --slowest N`` lists the
    slowest cells of one run, and ``export`` renders a run's merged metrics
    as OpenMetrics/Prometheus text for external scrapers.
    Runs are addressed by id prefix or the shorthands ``last``/``prev``.

``report``
    Run benchmarks with the observation collector attached and print the
    per-run cycle-attribution breakdown (categories partition the run and
    sum to total cycles) plus the per-structure energy split.
    ``--timeline FILE`` additionally exports a sampled simulator timeline
    (ROB / load-queue / store-buffer / merge-buffer occupancy over cycles)
    as Chrome trace-event JSON for Perfetto / ``chrome://tracing``.

``profile``
    Profile one campaign preset, run serially, under cProfile: a
    cumulative-time top-N table on stdout, plus ``--collapsed FILE`` writing
    flamegraph-ready collapsed stacks.

Global observability flags (before the sub-command): ``--verbose`` /
``--quiet`` / ``--log-json`` configure the library's stderr logging,
``--metrics`` switches the metrics registry on and dumps its snapshot to
stderr on exit; ``sweep``/``dse`` accept ``--trace-out FILE`` to export
wall-clock campaign spans (per-worker cell execution, DSE rung boundaries)
as Chrome trace-event JSON.  Interactive terminals get a self-updating
progress line on ``sweep``/``dse``/``figure4``.

Each sub-command's handler is bound to its parser with ``set_defaults``.  A
handler reports a bad invocation by raising :class:`UsageError`; :func:`main`
turns it, and an unsupported store URL, into ``repro: <reason>`` on stderr
and exit status 2, with no traceback.  A store error (a record that does not
parse, a failed write, a clobbered manifest) ends the same way with status 1.

Examples::

    python -m repro compare gzip
    python -m repro figure4 gzip djpeg mcf --instructions 4000
    python -m repro sweep fig4 --store results/fig4
    python -m repro sweep sec6d --jobs 2 --store sqlite:results/sec6d.db
    python -m repro dse malec-mini --strategy random --budget 6 --instructions 500
    python -m repro dse malec-sensitivity --strategy halving --budget 24 --store results/dse
    python -m repro ingest convert app.lackey.gz -o app.rtrc --skip 1000
    python -m repro ingest inspect app.rtrc
    python -m repro ingest interleave app.rtrc db.rtrc -o mix.rtrc
    python -m repro sweep fig4-mini --trace-file app.rtrc --store results/app
    python -m repro locality h263dec swim
    python -m repro report gzip --config MALEC --timeline timeline.json
    python -m repro --metrics sweep fig4-mini --trace-out sweep-trace.json
    python -m repro --metrics sweep fig4-mini --jobs 4 --store results/fig4-mini
    python -m repro obs history results/fig4-mini
    python -m repro obs compare results/fig4-mini prev last --threshold 25
    python -m repro obs cells results/fig4-mini --slowest 5
    python -m repro obs export results/fig4-mini
    python -m repro profile fig4-mini --collapsed stacks.txt
    python -m repro list
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, List, Optional, Sequence

from repro.analysis.locality import PageLocalityAnalyzer
from repro.analysis.reporting import format_frontier, format_table, frontier_csv
from repro.api import RunOptions
from repro.campaign.aggregate import summarize_results, summarize_store
from repro.campaign.backends import parse_store_url
from repro.campaign.executor import ParallelExecutor, cell_trace
from repro.campaign.spec import PRESET_NAMES, CampaignSpec, campaign_preset
from repro.campaign.store import (
    StoreConflictError,
    StoreReadError,
    StoreURLError,
    StoreWriteError,
    open_store,
)
from repro.dse.engine import run_dse
from repro.dse.objectives import (
    DEFAULT_OBJECTIVES,
    OBJECTIVE_NAMES,
    resolve_objectives,
)
from repro.dse.space import SPACE_PRESET_NAMES, space_preset
from repro.dse.strategies import STRATEGY_NAMES
from repro.obs import metrics as obs_metrics
from repro.obs import telemetry
from repro.obs.attribution import attribute_run, format_attribution
from repro.obs.collector import RunCollector
from repro.obs.logs import configure as configure_logging
from repro.obs.logs import run_context
from repro.obs.progress import make_progress
from repro.obs.traceevent import TraceEventLog
from repro.sim.config import SimulationConfig
from repro.sim.simulator import run_configuration
from repro.workloads.binfmt import dump_rtrc
from repro.workloads.ingest import (
    TRACE_FORMATS,
    dump_jsonl,
    interleave,
    load_trace,
    skip_warmup,
    subsample,
    window,
)
from repro.workloads.registry import register_trace
from repro.workloads.suites import EXTENDED_BENCHMARKS, benchmark_profile
from repro.workloads.synthetic import generate_trace

#: the five Fig. 4 configurations by name, in the figure's column order
_FIG4_SUITE = {config.name: config for config in SimulationConfig.figure4_suite()}

#: unreadable or malformed trace input (``TraceParseError`` and
#: ``TraceFormatError`` subclass ``ValueError``)
_TRACE_ERRORS = (OSError, ValueError)


class UsageError(Exception):
    """A bad invocation: :func:`main` prints ``repro: <message>`` to stderr
    and returns exit status 2, with no traceback."""


@contextmanager
def _usage_errors(*errors: type) -> Iterator[None]:
    """Re-raise ``errors`` from the block as :class:`UsageError`, keeping the
    message (a ``KeyError``'s without the quotes ``str`` adds)."""
    try:
        yield
    except errors as error:
        message = error.args[0] if isinstance(error, KeyError) else str(error)
        raise UsageError(message) from None


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _port(text: str) -> int:
    value = int(text)
    if not 0 <= value <= 65535:
        raise argparse.ArgumentTypeError(f"must lie in 0..65535, got {value}")
    return value


def _warmup_fraction(text: str) -> float:
    value = float(text)
    if not 0.0 <= value < 1.0:
        raise argparse.ArgumentTypeError(f"must lie in [0, 1), got {value}")
    return value


#: help text shared by every --store flag
_STORE_HELP = (
    "store URL: json:DIR (one JSON record per cell; a bare path means the "
    "same), or sqlite:FILE (single WAL database, safe for concurrent "
    "sweeps)"
)


def _add_trace_file_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace-file",
        action="append",
        default=None,
        dest="trace_files",
        metavar="FILE",
        help="run this ingested trace (.rtrc/.jsonl/lackey/.din/.csv, "
        "gzip-aware; repeatable).  Added to the selected benchmarks, or "
        "run alone when no benchmarks are selected",
    )


def _add_campaign_options(
    parser: argparse.ArgumentParser, *flags: str, noun: str = "preset"
) -> None:
    """Add the named flags that ``sweep``, ``dse`` and ``figure4`` share, in
    the order given; ``noun`` names what ``--benchmarks``, ``--instructions``
    and ``--warmup`` override (a campaign preset or a search space)."""
    options = {
        "--benchmarks": dict(
            nargs="+",
            choices=sorted(EXTENDED_BENCHMARKS),
            default=None,
            help=f"restrict the {noun} to these benchmarks (default: the {noun}'s own)",
        ),
        "--instructions": dict(
            type=_positive_int,
            default=None,
            help=f"override the {noun}'s per-benchmark trace length",
        ),
        "--warmup": dict(
            type=_warmup_fraction,
            default=None,
            help=f"override the {noun}'s warm-up fraction",
        ),
        "--jobs": dict(
            type=_positive_int,
            default=None,
            help="worker processes (default: one per CPU core)",
        ),
        "--quiet": dict(action="store_true", help="suppress per-cell progress output"),
        "--trace-out": dict(
            default=None,
            metavar="FILE",
            help="export per-worker cell spans (and dse's batch/rung "
            "boundaries) as Chrome trace-event JSON (open in Perfetto / "
            "chrome://tracing)",
        ),
    }
    for flag in flags:
        parser.add_argument(flag, **options[flag])


def _add_transform_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--window",
        default=None,
        metavar="START:STOP",
        help="keep only the region of interest [START, STOP) (applied first)",
    )
    parser.add_argument(
        "--skip",
        type=int,
        default=0,
        metavar="N",
        help="drop the first N instructions (external warm-up; applied second)",
    )
    parser.add_argument(
        "--stride",
        type=_positive_int,
        default=1,
        metavar="K",
        help="keep every K-th instruction (stride subsampling; applied last)",
    )


def _parse_window(text: str):
    """``START:STOP`` -> (start, stop); STOP may be empty (end of trace).

    Raises ``ValueError``, which ``ingest convert`` reports as a usage error.
    """
    start_text, _, stop_text = text.partition(":")
    try:
        start = int(start_text) if start_text else 0
        stop = int(stop_text) if stop_text else None
    except ValueError:
        raise ValueError(
            f"--window expects START:STOP integers, got {text!r}"
        ) from None
    return start, stop


def _apply_transforms(trace, args):
    """Apply the shared convert transforms in documented order."""
    if args.window:
        start, stop = _parse_window(args.window)
        trace = window(trace, start, stop)
    if args.skip:
        trace = skip_warmup(trace, args.skip)
    if args.stride > 1:
        trace = subsample(trace, args.stride)
    return trace


def _workloads(args: argparse.Namespace) -> Optional[List[str]]:
    """The named benchmarks plus every ``--trace-file``, loaded and registered.

    Returns ``None`` when nothing was selected (a preset or space keeps its
    own benchmarks); ingested traces run alone when no benchmark is named.
    """
    names = list(args.benchmarks or [])
    with _usage_errors(*_TRACE_ERRORS):
        for path in args.trace_files or []:
            handle = register_trace(load_trace(path))
            names.append(handle.name)
            print(f"ingested {path} as {handle.name} ({handle.length} instr)", file=sys.stderr)
    return names or None


def _fig4_config(name: str) -> SimulationConfig:
    """The Fig. 4 configuration called ``name``."""
    if name not in _FIG4_SUITE:
        raise UsageError(
            f"unknown configuration {name!r}; choose from {', '.join(_FIG4_SUITE)}"
        )
    return _FIG4_SUITE[name]


def _campaign(name: str, configurations, workloads, args) -> CampaignSpec:
    """The campaign of ``configurations`` x ``workloads`` at the invocation's
    ``--instructions`` and ``--warmup``; an unknown workload or a repeated
    configuration is a usage error."""
    with _usage_errors(KeyError, ValueError):
        return CampaignSpec(
            name=name,
            configurations=tuple(configurations),
            benchmarks=tuple(workloads),
            instructions=args.instructions,
            warmup_fraction=args.warmup,
        )


def _add_common_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--instructions",
        type=_positive_int,
        default=5000,
        help="dynamic instructions per benchmark trace (default: 5000)",
    )
    parser.add_argument(
        "--warmup",
        type=_warmup_fraction,
        default=0.3,
        help="fraction of the trace used to warm caches/TLBs (default: 0.3)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'MALEC: A Multiple Access Low Energy Cache' (DATE 2013)",
    )
    # Global observability flags: placed before the sub-command.  The global
    # --quiet uses its own dest so it never collides with the sweep/dse
    # progress --quiet (which stays a sub-command flag).
    parser.add_argument(
        "--verbose",
        action="store_true",
        help="log DEBUG and up from the library (stderr)",
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        dest="log_quiet",
        help="log only errors from the library",
    )
    parser.add_argument(
        "--log-json",
        action="store_true",
        help="emit library logs as one JSON object per line",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="collect operational metrics and dump the registry snapshot "
        "as JSON to stderr on exit (off by default; never affects results)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    compare = commands.add_parser(
        "compare", help="compare the three interfaces on one benchmark"
    )
    compare.add_argument("benchmark", choices=sorted(EXTENDED_BENCHMARKS))
    _add_common_options(compare)
    compare.set_defaults(handler=_cmd_compare)

    figure4 = commands.add_parser(
        "figure4", help="run the five Fig. 4 configurations over benchmarks"
    )
    # No argparse choices= here: nargs="*" + choices rejects an empty list on
    # Python < 3.12, and trace-only invocations pass no benchmarks at all.
    # Names are validated in _cmd_figure4 (exit 2, like unknown presets).
    figure4.add_argument(
        "benchmarks",
        nargs="*",
        metavar="benchmark",
        help=f"benchmark profiles from `repro list` (e.g. {', '.join(sorted(EXTENDED_BENCHMARKS)[:3])}, ...)",
    )
    _add_common_options(figure4)
    _add_campaign_options(figure4, "--jobs")
    _add_trace_file_option(figure4)
    figure4.set_defaults(handler=_cmd_figure4)

    sweep = commands.add_parser(
        "sweep", help="run a campaign preset through the parallel sweep engine"
    )
    # Unknown preset names are resolved (and rejected with the list of valid
    # presets) in _cmd_sweep, so they exit(2) without a traceback.
    sweep.add_argument(
        "preset",
        metavar="preset",
        help=f"campaign preset: one of {', '.join(PRESET_NAMES)}",
    )
    _add_campaign_options(sweep, "--benchmarks", "--instructions", "--warmup", "--jobs")
    sweep.add_argument(
        "--store",
        default=None,
        metavar="URL",
        help=f"{_STORE_HELP}; completed cells persist and re-runs resume "
        "(default: in-memory only)",
    )
    _add_campaign_options(sweep, "--quiet", "--trace-out")
    sweep.add_argument(
        "--journal",
        default=None,
        metavar="FILE",
        help="append per-cell telemetry records to FILE regardless of "
        "--metrics (default: the store's telemetry journal, written "
        "automatically when both --store and --metrics are given)",
    )
    _add_trace_file_option(sweep)
    sweep.set_defaults(handler=_cmd_sweep)

    dse = commands.add_parser(
        "dse",
        help="explore a configuration search space; print the Pareto frontier",
    )
    # Unknown space names are resolved (and rejected with the list of valid
    # presets) in _cmd_dse, so they exit(2) without a traceback.
    dse.add_argument(
        "space",
        metavar="space",
        help=f"search-space preset: one of {', '.join(SPACE_PRESET_NAMES)}",
    )
    dse.add_argument(
        "--strategy",
        choices=list(STRATEGY_NAMES),
        default="grid",
        help="search strategy (default: grid)",
    )
    dse.add_argument(
        "--budget",
        type=_positive_int,
        default=None,
        help="maximum number of candidate configurations (default: the "
        "strategy's own default; grid sweeps the whole space)",
    )
    dse.add_argument(
        "--objectives",
        default=",".join(DEFAULT_OBJECTIVES),
        metavar="KEYS",
        help="comma-separated minimized objectives, from: "
        f"{', '.join(OBJECTIVE_NAMES)} (default: %(default)s)",
    )
    _add_campaign_options(
        dse, "--benchmarks", "--instructions", "--warmup", "--jobs", noun="space"
    )
    dse.add_argument(
        "--seed",
        type=int,
        default=0,
        help="sampling seed for random/halving strategies (default: 0)",
    )
    dse.add_argument(
        "--store",
        default=None,
        metavar="URL",
        help=f"{_STORE_HELP}; every evaluated cell persists, interrupted "
        "explorations resume and strategies dedupe each other's cells "
        "(default: in-memory only)",
    )
    dse.add_argument(
        "--csv",
        default=None,
        metavar="FILE",
        help="write the frontier as CSV to FILE "
        "(default: <store dir>/frontier.csv when --store is given)",
    )
    _add_campaign_options(dse, "--quiet", "--trace-out")
    _add_trace_file_option(dse)
    dse.set_defaults(handler=_cmd_dse)

    ingest = commands.add_parser(
        "ingest", help="convert, inspect and combine externally captured traces"
    )
    ingest_commands = ingest.add_subparsers(dest="ingest_command", required=True)

    convert = ingest_commands.add_parser(
        "convert", help="parse an external trace and write it as .rtrc (or JSONL)"
    )
    convert.add_argument("input", help="trace file to read (.gz transparently)")
    convert.add_argument(
        "-o",
        "--output",
        default=None,
        metavar="FILE",
        help="output path; .jsonl/.jsonl.gz writes JSONL, anything else the "
        "binary .rtrc format (default: input path with an .rtrc suffix)",
    )
    convert.add_argument(
        "--format",
        choices=("auto",) + TRACE_FORMATS,
        default="auto",
        help="input format (default: sniffed from the file extension)",
    )
    convert.add_argument(
        "--name", default=None, help="trace name embedded in the output"
    )
    _add_transform_options(convert)
    convert.set_defaults(handler=_cmd_convert)

    inspect = ingest_commands.add_parser(
        "inspect", help="print a trace's statistics and content fingerprint"
    )
    inspect.add_argument("inputs", nargs="+", metavar="FILE")
    inspect.add_argument(
        "--format",
        choices=("auto",) + TRACE_FORMATS,
        default="auto",
        help="input format (default: sniffed from each file extension)",
    )
    inspect.set_defaults(handler=_cmd_inspect)

    interleave_cmd = ingest_commands.add_parser(
        "interleave",
        help="round-robin several traces into one multiprogrammed workload",
    )
    interleave_cmd.add_argument("inputs", nargs="+", metavar="FILE")
    interleave_cmd.add_argument(
        "-o", "--output", required=True, metavar="FILE", help="output trace path"
    )
    interleave_cmd.add_argument(
        "--granularity",
        type=_positive_int,
        default=64,
        help="instructions taken from each trace per round (default: 64)",
    )
    interleave_cmd.add_argument(
        "--name", default=None, help="name of the merged trace (default: joined names)"
    )
    interleave_cmd.set_defaults(handler=_cmd_interleave)

    locality = commands.add_parser(
        "locality", help="print Sec. III / Fig. 1 locality statistics"
    )
    locality.add_argument("benchmarks", nargs="+", choices=sorted(EXTENDED_BENCHMARKS))
    locality.add_argument("--instructions", type=_positive_int, default=5000)
    locality.set_defaults(handler=_cmd_locality)

    obs = commands.add_parser(
        "obs", help="query the telemetry journals of a campaign store"
    )
    obs_commands = obs.add_subparsers(dest="obs_command", required=True)

    def _obs_store_argument(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "store",
            nargs="?",
            default=None,
            metavar="STORE",
            help="campaign store: a store URL (json:DIR / sqlite:FILE), a "
            "store directory, or a telemetry.jsonl path",
        )
        sub.add_argument(
            "--store",
            dest="store_url",
            default=None,
            metavar="URL",
            help=_STORE_HELP,
        )

    obs_history = obs_commands.add_parser(
        "history", help="tabulate every run recorded in the journal"
    )
    _obs_store_argument(obs_history)
    obs_history.set_defaults(handler=_cmd_history)

    obs_compare = obs_commands.add_parser(
        "compare", help="per-cell wall-time deltas between two runs"
    )
    _obs_store_argument(obs_compare)
    obs_compare.set_defaults(handler=_cmd_compare_runs)
    obs_compare.add_argument(
        "run_a", metavar="RUN_A", help="baseline run: id prefix, 'last' or 'prev'"
    )
    obs_compare.add_argument(
        "run_b", metavar="RUN_B", help="candidate run: id prefix, 'last' or 'prev'"
    )
    obs_compare.add_argument(
        "--threshold",
        type=float,
        default=20.0,
        metavar="PCT",
        help="flag cells more than PCT percent slower (default: 20)",
    )
    obs_compare.add_argument(
        "--check",
        action="store_true",
        help="exit 1 when any cell regresses beyond --threshold",
    )

    obs_cells = obs_commands.add_parser(
        "cells", help="list the slowest computed cells of one run"
    )
    _obs_store_argument(obs_cells)
    obs_cells.set_defaults(handler=_cmd_cells)
    obs_cells.add_argument(
        "--run",
        default="last",
        metavar="RUN",
        help="run to inspect: id prefix, 'last' or 'prev' (default: last)",
    )
    obs_cells.add_argument(
        "--slowest",
        type=_positive_int,
        default=10,
        metavar="N",
        help="number of cells to list (default: 10)",
    )

    obs_export = obs_commands.add_parser(
        "export",
        help="render a run's merged metrics as OpenMetrics/Prometheus text",
    )
    _obs_store_argument(obs_export)
    obs_export.set_defaults(handler=_cmd_export)
    obs_export.add_argument(
        "--run",
        default="last",
        metavar="RUN",
        help="run to export: id prefix, 'last' or 'prev' (default: last)",
    )

    serve = commands.add_parser(
        "serve",
        help="serve sweeps over HTTP from a shared store (submit, poll, "
        "fetch cells and frontiers)",
    )
    serve.add_argument(
        "--store",
        required=True,
        metavar="URL",
        help=f"{_STORE_HELP}; shared by every submitted sweep",
    )
    serve.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind address (default: %(default)s)",
    )
    serve.add_argument(
        "--port",
        type=_port,
        default=8350,
        help="listen port; 0 picks a free one (default: %(default)s)",
    )
    serve.add_argument(
        "--jobs",
        type=_positive_int,
        default=None,
        help="default worker processes per submitted sweep (a submission "
        "may override with its own \"jobs\" field)",
    )
    serve.set_defaults(handler=_cmd_serve)

    report = commands.add_parser(
        "report",
        help="run benchmarks with the collector attached; print cycle and "
        "energy attribution",
    )
    report.add_argument(
        "benchmarks",
        nargs="*",
        metavar="benchmark",
        help="benchmark profiles to attribute (default: the fig4-mini trio)",
    )
    report.add_argument(
        "--config",
        action="append",
        default=None,
        dest="configs",
        metavar="NAME",
        help=f"configuration(s) to run, from: {', '.join(_FIG4_SUITE)} "
        "(repeatable; default: all five)",
    )
    _add_common_options(report)
    report.add_argument(
        "--timeline",
        default=None,
        metavar="FILE",
        help="export the sampled simulator timeline (structure occupancy "
        "over cycles) as Chrome trace-event JSON",
    )
    report.add_argument(
        "--sample-every",
        type=_positive_int,
        default=100,
        metavar="N",
        help="timeline sampling period in cycles (default: 100)",
    )
    report.add_argument(
        "--json",
        default=None,
        dest="json_out",
        metavar="FILE",
        help="also write every attribution as a JSON array to FILE",
    )
    report.add_argument(
        "--kernel-source",
        default=None,
        dest="kernel_source",
        metavar="NAME",
        help="print the generated specialized-kernel source for the named "
        f"configuration ({', '.join(_FIG4_SUITE)}) and exit",
    )
    _add_trace_file_option(report)
    report.set_defaults(handler=_cmd_report)

    profile = commands.add_parser(
        "profile",
        help="profile a campaign preset, run serially, under cProfile "
        "(flamegraph-ready collapsed stacks with --collapsed)",
    )
    profile.add_argument("preset", choices=PRESET_NAMES, help="campaign preset to profile")
    profile.add_argument(
        "--instructions",
        type=_positive_int,
        default=None,
        help="override the preset's per-benchmark trace length",
    )
    profile.add_argument(
        "--top",
        type=_positive_int,
        default=25,
        help="rows in the cumulative-time table (default: 25)",
    )
    profile.add_argument(
        "--collapsed",
        default=None,
        metavar="FILE",
        help="write collapsed stacks (flamegraph.pl / speedscope input)",
    )
    profile.set_defaults(handler=_cmd_profile)

    listing = commands.add_parser("list", help="list the available benchmark profiles")
    listing.set_defaults(handler=_cmd_list)
    return parser


# ----------------------------------------------------------------------
# Sub-command implementations
# ----------------------------------------------------------------------
def _cmd_list(args: argparse.Namespace) -> int:
    rows = []
    for name in EXTENDED_BENCHMARKS:
        profile = benchmark_profile(name)
        rows.append([name, profile.suite, profile.memory_fraction, len(profile.streams)])
    print(format_table(["benchmark", "suite", "mem fraction", "streams"], rows))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    configurations = (
        SimulationConfig.base_1ldst(),
        SimulationConfig.base_2ld1st(),
        SimulationConfig.malec(),
    )
    spec = _campaign("compare", configurations, [args.benchmark], args)
    results = ParallelExecutor(jobs=1).run(spec).runs[0].results
    baseline = results[configurations[0].name]
    rows = [
        [
            name,
            result.cycles,
            result.cycles / baseline.cycles,
            result.energy.total_pj / baseline.energy.total_pj,
            result.way_coverage,
            result.merged_load_fraction,
        ]
        for name, result in results.items()
    ]
    print(f"benchmark: {args.benchmark} ({args.instructions} instructions)")
    print(
        format_table(
            ["configuration", "cycles", "norm. time", "norm. energy", "coverage", "merged"],
            rows,
        )
    )
    return 0


def _write_trace_log(trace_log: Optional[TraceEventLog], path: Optional[str]) -> None:
    """Persist a trace-event log collected behind ``--trace-out``."""
    if trace_log is None or path is None:
        return
    trace_log.write(Path(path))
    print(f"trace events written to {path} ({len(trace_log)} events)")


def _cmd_sweep(args: argparse.Namespace) -> int:
    with _usage_errors(KeyError):
        preset = campaign_preset(args.preset)
    spec = preset.with_overrides(
        benchmarks=_workloads(args),
        instructions=args.instructions,
        warmup_fraction=args.warmup,
    )
    store = open_store(args.store)
    trace_log = TraceEventLog() if args.trace_out else None
    progress = make_progress(args.quiet)

    executor = ParallelExecutor(
        jobs=args.jobs,
        store=store,
        progress=progress,
        trace_log=trace_log,
        journal=args.journal,
    )
    results = executor.run(spec)
    if progress is not None:
        progress.finish()
    _write_trace_log(trace_log, args.trace_out)
    ran, skipped = len(executor.completed_cells), len(executor.skipped_cells)
    print(
        f"campaign '{spec.name}': {ran} cell(s) simulated, {skipped} resumed "
        f"from store ({'serial' if not executor.used_pool else f'{executor.jobs} jobs'})"
    )
    if executor.active_journal is not None:
        print(
            f"telemetry journal: {executor.active_journal.path} "
            f"(run {executor.active_journal.run_id})"
        )
    baseline = spec.configuration_names()[0]
    if store is not None:
        print(f"results: {store.url} ({len(store)} records)")
        print()
        # Summarize the whole directory (it may hold more benchmarks than
        # this invocation swept), filtered to this sweep's grid parameters
        # so records from earlier sweeps at other settings don't collide.
        print(
            summarize_store(
                store,
                baseline=baseline,
                instructions=spec.instructions,
                seed=spec.seed,
                warmup_fraction=spec.warmup_fraction,
            )
        )
    else:
        print()
        print(summarize_results(results, baseline=baseline))
    return 0


def _cmd_dse(args: argparse.Namespace) -> int:
    with _usage_errors(KeyError):
        space = space_preset(args.space)
    space = space.with_overrides(
        benchmarks=_workloads(args),
        instructions=args.instructions,
        warmup_fraction=args.warmup,
    )
    objectives = tuple(key.strip() for key in args.objectives.split(",") if key.strip())
    # Usage errors only: validate the objective keys up front so that a
    # ValueError escaping run_dse below is a genuine engine failure with
    # a traceback, not a silent exit(2).
    with _usage_errors(ValueError):
        resolve_objectives(objectives)
    store = open_store(args.store)
    trace_log = TraceEventLog() if args.trace_out else None
    progress = make_progress(args.quiet)
    result = run_dse(
        space,
        strategy=args.strategy,
        objectives=objectives,
        budget=args.budget,
        jobs=args.jobs,
        store=store,
        seed=args.seed,
        progress=progress,
        trace_log=trace_log,
    )
    if progress is not None:
        progress.finish()
    _write_trace_log(trace_log, args.trace_out)

    print(
        f"space '{space.name}': {space.size} points, strategy {result.strategy}, "
        f"{len(result.pool)} candidate(s) at full length "
        f"({len(result.evaluations)} evaluation(s) total)"
    )
    print(
        f"cells: {result.cells_simulated} simulated, {result.cells_resumed} "
        f"resumed from store"
    )
    if store is not None:
        print(f"results: {store.url} ({len(store)} records)")
    print()
    print(f"Pareto frontier ({len(result.frontier)} point(s), all objectives minimized):")
    print(format_frontier(result.frontier, result.ranks))

    csv_path = args.csv
    if csv_path is None and store is not None:
        csv_path = str(store.root / "frontier.csv")
    if csv_path is not None:
        payload = frontier_csv(result.frontier, result.ranks)
        Path(csv_path).parent.mkdir(parents=True, exist_ok=True)
        Path(csv_path).write_text(payload)
        print(f"\nfrontier written to {csv_path}")
    return 0


def _cmd_figure4(args: argparse.Namespace) -> int:
    workloads = _workloads(args)
    if not workloads:
        raise UsageError("figure4 needs benchmark names and/or --trace-file")
    spec = _campaign("figure4", _FIG4_SUITE.values(), workloads, args)
    # Interactive-only progress: non-TTY figure4 output stays exactly the
    # final table, as before (fallback_lines=False).
    progress = make_progress(fallback_lines=False)
    results = ParallelExecutor(jobs=args.jobs, progress=progress).run(spec)
    progress.finish()
    rows = []
    for run in results.runs:
        cycles = run.normalized_cycles("Base1ldst")
        energy = run.normalized_energy("Base1ldst")
        rows.append(
            [run.benchmark]
            + [cycles[name] for name in _FIG4_SUITE]
            + [energy["MALEC"]["total"]]
        )
    geomean = results.geomean_normalized_cycles("Base1ldst")
    rows.append(["geo. mean"] + [geomean[name] for name in _FIG4_SUITE] + [
        results.geomean_normalized_energy("Base1ldst")["MALEC"]
    ])
    print(
        format_table(
            ["benchmark"] + list(_FIG4_SUITE) + ["MALEC energy"],
            rows,
        )
    )
    return 0


def _default_convert_output(input_path: str) -> Path:
    """``app.lackey.gz`` -> ``app.rtrc`` (next to the input)."""
    name = Path(input_path).name
    if name.endswith(".gz"):
        name = name[: -len(".gz")]
    return Path(input_path).parent / (Path(name).stem + ".rtrc")


def _write_trace(trace, output: Path) -> None:
    """Write ``trace`` in the format implied by ``output``'s extension."""
    text = str(output)
    if text.endswith((".jsonl", ".jsonl.gz")):
        dump_jsonl(trace, output)
    else:
        dump_rtrc(trace, output)


@_usage_errors(*_TRACE_ERRORS)
def _cmd_convert(args: argparse.Namespace) -> int:
    trace = load_trace(args.input, fmt=args.format, name=args.name)
    trace = _apply_transforms(trace, args)
    output = Path(args.output) if args.output else _default_convert_output(args.input)
    output.parent.mkdir(parents=True, exist_ok=True)
    _write_trace(trace, output)
    print(f"wrote {output}: {trace.summary()}\nfingerprint {trace.fingerprint()}")
    return 0


@_usage_errors(*_TRACE_ERRORS)
def _cmd_inspect(args: argparse.Namespace) -> int:
    for path in args.inputs:
        trace = load_trace(path, fmt=args.format)
        print(f"{path}: {trace.summary()}")
        print(f"  fingerprint {trace.fingerprint()}")
    return 0


@_usage_errors(*_TRACE_ERRORS)
def _cmd_interleave(args: argparse.Namespace) -> int:
    traces = [load_trace(path) for path in args.inputs]
    merged = interleave(traces, granularity=args.granularity, name=args.name)
    output = Path(args.output)
    output.parent.mkdir(parents=True, exist_ok=True)
    _write_trace(merged, output)
    print(f"wrote {output}: {merged.summary()}")
    return 0


def _cmd_locality(args: argparse.Namespace) -> int:
    analyzer = PageLocalityAnalyzer()
    rows = []
    for name in args.benchmarks:
        trace = generate_trace(benchmark_profile(name), instructions=args.instructions)
        loads = trace.load_addresses()
        rows.append(
            [name]
            + [analyzer.same_page_follow_fraction(loads, n) for n in (0, 1, 2, 3)]
            + [analyzer.same_line_follow_fraction(loads)]
        )
    print(
        format_table(
            ["benchmark", "<=0 interm.", "<=1", "<=2", "<=3", "same line"], rows
        )
    )
    return 0


#: default ``repro report`` workloads: the fig4-mini trio
_REPORT_BENCHMARKS = ("gzip", "swim", "djpeg")


def _cmd_report(args: argparse.Namespace) -> int:
    if args.kernel_source is not None:
        # Imported lazily: the generator is only needed for this debug dump.
        from repro.sim.kernels import kernel_source

        print(kernel_source(_fig4_config(args.kernel_source)), end="")
        return 0
    workloads = _workloads(args) or _REPORT_BENCHMARKS
    configs = [_fig4_config(name) for name in args.configs or _FIG4_SUITE]
    spec = _campaign("report", configs, workloads, args)

    # Attribution needs per-cycle collector callbacks the fused kernels do
    # not emit, so these runs always take the generic interpreter path.
    print(
        "note: collector attached; runs fall back to the generic "
        "interpreter (specialized kernels are bypassed)"
    )
    print()
    timeline = TraceEventLog() if args.timeline else None
    attributions = []
    # Collectors need in-process runs, so the cells run here, benchmark-major,
    # on the traces the campaign engine resolves for figure4 and sweep.
    for cell in spec.cells():
        collector = RunCollector(
            sample_every=args.sample_every if timeline is not None else 0
        )
        result = run_configuration(
            cell.config,
            cell_trace(cell),
            warmup_fraction=cell.warmup_fraction,
            options=RunOptions(collector=collector),
        )
        attribution = attribute_run(cell.benchmark, result, collector)
        # The partition invariant (categories sum to total cycles) is a
        # hard guarantee; a violation is an engine bug, so let it raise.
        attribution.check()
        if attributions:
            print()
        attributions.append(attribution)
        print(format_attribution(attribution))
        if timeline is not None:
            track = len(attributions) - 1
            timeline.name_process(track, f"{cell.benchmark} {cell.config.name}")
            for cycle, rob, lq, sb, mb in collector.samples:
                # Simulator timelines map cycles to trace microseconds.
                timeline.add_counter(
                    "occupancy",
                    "sim.occupancy",
                    float(cycle),
                    {"rob": rob, "lq": lq, "sb": sb, "mb": mb},
                    pid=track,
                )
    if timeline is not None:
        print()
        _write_trace_log(timeline, args.timeline)
    if args.json_out:
        payload = json.dumps(
            [attribution.as_dict() for attribution in attributions],
            indent=1,
            sort_keys=True,
        )
        target = Path(args.json_out)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(payload + "\n")
        print(f"attribution JSON written to {args.json_out}")
    return 0


@contextmanager
def _journal_runs(args: argparse.Namespace) -> Iterator[List[telemetry.JournalRun]]:
    """The runs of the journal an ``obs`` command names, by either store
    spelling; a ``ValueError`` in the block (an unknown or ambiguous run
    token, a malformed dump) is a usage error."""
    if args.store is not None and args.store_url is not None:
        raise UsageError("pass the store positionally or with --store, not both")
    target = args.store_url if args.store_url is not None else args.store
    if target is None:
        raise UsageError("obs needs a store (STORE argument or --store URL)")
    if args.store_url is not None or re.match(r"^[A-Za-z][A-Za-z0-9+.-]*:", target):
        # URL spelling: validate the scheme so a typo exits 2 with the
        # supported list instead of "no telemetry journal at bogus:...".
        parse_store_url(target)
    journal_path = telemetry.resolve_journal(target)
    if not journal_path.exists():
        raise UsageError(
            f"no telemetry journal at {journal_path} (run a sweep "
            "with --metrics and --store, or --journal, first)"
        )
    try:
        runs = telemetry.load_runs(journal_path)
    except (OSError, ValueError) as error:
        raise UsageError(f"cannot read {journal_path}: {error}") from None
    with _usage_errors(ValueError):
        yield runs


def _cmd_history(args: argparse.Namespace) -> int:
    with _journal_runs(args) as runs:
        print(telemetry.format_history(runs))
    return 0


def _cmd_compare_runs(args: argparse.Namespace) -> int:
    with _journal_runs(args) as runs:
        comparison = telemetry.compare_runs(
            telemetry.resolve_run(runs, args.run_a),
            telemetry.resolve_run(runs, args.run_b),
            threshold_pct=args.threshold,
        )
        print(telemetry.format_compare(comparison))
    return 1 if args.check and comparison["regressions"] else 0


def _cmd_cells(args: argparse.Namespace) -> int:
    with _journal_runs(args) as runs:
        run = telemetry.resolve_run(runs, args.run)
        print(telemetry.format_cells(run, telemetry.slowest_cells(run, args.slowest)))
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    with _journal_runs(args) as runs:
        run = telemetry.resolve_run(runs, args.run)
        dump = (run.footer or {}).get("metrics")
        if not isinstance(dump, dict):
            raise UsageError(
                f"run {run.run_id} recorded no metrics dump "
                "(the sweep ran without --metrics)"
            )
        print(obs_metrics.render_openmetrics(dump), end="")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    # Imported lazily: the HTTP stack is only needed when actually serving.
    from repro.serve import ReproServer

    try:
        server = ReproServer(
            args.store, host=args.host, port=args.port, jobs=args.jobs
        )
    except OSError as error:
        raise UsageError(f"cannot bind {args.host}:{args.port}: {error}") from None
    print(f"repro serve: listening on {server.url} (store {server.store.url})")
    print(
        "endpoints: POST /api/v1/campaigns, GET /api/v1/campaigns/<id>"
        "[/frontier], GET /api/v1/cells/<key>, GET /api/v1/health "
        "(Ctrl-C to stop)"
    )
    server.serve_forever()
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    # Imported lazily: cProfile and pstats are only needed when profiling.
    from repro.obs.profile import run_profile

    report, stack_lines = run_profile(
        args.preset,
        instructions=args.instructions,
        top=args.top,
        collapsed_out=args.collapsed,
    )
    print(report, end="")
    if args.collapsed:
        print(f"collapsed stacks written to {args.collapsed} ({stack_lines} lines)")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point used by ``python -m repro`` and the console script.

    The one place a usage error ends: a :class:`UsageError` from a handler,
    or a :class:`StoreURLError` from an unsupported ``--store`` scheme,
    prints ``repro: <message>`` to stderr and returns 2.  A store that
    cannot be read or written (:class:`StoreReadError`,
    :class:`StoreWriteError`, :class:`StoreConflictError`) prints
    ``repro: <message>`` too and returns 1: the invocation was fine.
    """
    args = _build_parser().parse_args(argv)
    configure_logging(
        verbose=args.verbose, quiet=args.log_quiet, json_lines=args.log_json
    )
    if args.metrics:
        obs_metrics.enable()
    try:
        with run_context(args.command):
            return args.handler(args)
    except (UsageError, StoreURLError) as error:
        print(f"repro: {error}", file=sys.stderr)
        return 2
    except (StoreReadError, StoreWriteError, StoreConflictError) as error:
        print(f"repro: {error}", file=sys.stderr)
        return 1
    finally:
        if args.metrics:
            print(
                json.dumps(
                    obs_metrics.registry.snapshot(), indent=1, sort_keys=True
                ),
                file=sys.stderr,
            )
            obs_metrics.disable()


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
