"""Layer spans for the traced run, recorded from outside the package.

:func:`install` wraps the public entry points of each layer of ``repro``
(module functions where callers look them up, class methods on the class),
so no file under ``src/`` changes.  Every wrapped call becomes a span
``[metric, start_ns, end_ns, parent, thread]`` held in memory; the parent is
the innermost open span of the same thread.  :func:`partition` turns the
spans into per-layer self times that sum to a window's wall time by
construction.
"""

from __future__ import annotations

import functools
import statistics
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

#: span field indices
KEY, START, END, PARENT, THREAD, INFO = range(6)

#: self-time metrics that partition a traced window (plus ``other.self_s``)
PARTITION = (
    "synthetic.generate_s",
    "columnar.lift_s",
    "columnar.warm_s",
    "kernels.compile_s",
    "simulator.build_s",
    "simulator.self_s",
    "pipeline.warmup_s",
    "pipeline.measured_s",
    "accounting.report_s",
    "store.put_s",
    "store.get_s",
    "store.record_s",
    "store.serialize_s",
    "store.deserialize_s",
    "store.manifest_s",
    "telemetry.append_s",
    "executor.self_s",
    "serve.self_s",
    "dse.batch_self_s",
    "dse.frontier_s",
)


class Tracer:
    """In-memory span and counter recorder shared by every wrapper."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Dict[str, float] = defaultdict(float)
        #: (method, path, start_ns, end_ns) of every ReproServer.dispatch
        self.dispatches: List[tuple] = []
        #: :func:`executor_run` tuples of every finished ParallelExecutor.run
        self.executors: list = []
        #: (trace, layout) pairs whose decompositions were warmed
        self.warmed: Dict[tuple, object] = {}
        self.kernels_seen: set = set()
        self._local = threading.local()
        self._lock = threading.Lock()

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counts[name] += amount

    def wrap(
        self,
        owner,
        attr: str,
        key: str,
        enter: Optional[Callable] = None,
        leave: Optional[Callable] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``enter(parent_span, args, kwargs)`` picks ``(key, info)`` at call
        time; ``leave(span, args, kwargs, result)`` records counters after
        the call.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        is_classmethod = isinstance(raw, classmethod)
        function = raw.__func__ if is_classmethod else raw
        spans = self.spans
        local = self._local

        @functools.wraps(function)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else None
            span_key, info = key, None
            if enter is not None:
                span_key, info = enter(spans[parent] if parent is not None else None, args, kwargs)
            span = [span_key, time.monotonic_ns(), 0, parent, threading.get_ident(), info]
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = function(*args, **kwargs)
            finally:
                span[END] = time.monotonic_ns()
                stack.pop()
            if leave is not None:
                leave(span, args, kwargs, result)
            return result

        setattr(owner, attr, classmethod(traced) if is_classmethod else traced)


def executor_run(executor, started: float, ended: float) -> tuple:
    """What one ParallelExecutor.run exposes publicly, with its epoch bounds.

    Copied at once: the executor resets its attributes on its next run.
    """
    return (list(executor.cell_timings), executor.jobs, executor.used_pool, started, ended)


def executor_metrics(runs) -> dict:
    """Pool-side executor metrics from :func:`executor_run` tuples."""
    waits, durations, busy, capacity, fallbacks = [], [], 0.0, 0.0, 0
    for timings, jobs, used_pool, started, ended in runs:
        if jobs > 1 and len(timings) > 1 and not used_pool:
            fallbacks += 1
        if not timings:
            continue
        waits.append(min(start for _c, _p, start, _e in timings) - started)
        durations.extend(end - start for _c, _p, start, end in timings)
        workers = len({pid for _c, pid, _s, _e in timings})
        busy += sum(end - start for _c, _p, start, end in timings)
        capacity += workers * max(ended - started, 1e-9)
    return {
        "executor.first_cell_wait_s": float(sum(waits)),
        "executor.worker_busy_frac": busy / capacity if capacity else 0.0,
        "executor.cell_ms_p50": statistics.median(durations) * 1e3 if durations else 0.0,
        "executor.pool_fallbacks": float(fallbacks),
    }


def _argument(args, kwargs, index: int, name: str, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def install(tracer: Tracer) -> None:
    """Wrap every layer's public entry points (at their import sites)."""
    import repro.campaign.executor as executor_mod
    import repro.campaign.store as store_mod
    import repro.cpu.pipeline as pipeline_mod
    import repro.dse.engine as dse_mod
    import repro.energy.accounting as accounting_mod
    import repro.obs.telemetry as telemetry_mod
    import repro.serve as serve_mod
    import repro.sim.kernels as kernels_mod
    import repro.sim.simulator as simulator_mod
    import repro.workloads.columnar as columnar_mod
    import repro.workloads.synthetic as synthetic_mod
    import repro.workloads.trace as trace_mod

    wrap, count = tracer.wrap, tracer.count

    def generated(span, args, kwargs, trace):
        count("synthetic.traces")
        count("synthetic.instructions", len(trace))

    for module in (synthetic_mod, executor_mod):
        wrap(module, "generate_trace", "synthetic.generate_s", leave=generated)

    wrap(trace_mod.MemoryTrace, "columnar", "columnar.lift_s")
    columnar = columnar_mod.ColumnarTrace
    wrap(columnar, "from_rtrc_bytes", "columnar.lift_s")
    wrap(columnar, "pipeline_arrays", "columnar.warm_s")

    def warmed(span, args, kwargs, result):
        trace = args[0]
        layout = _argument(args, kwargs, 1, "layout") or trace.layout
        tracer.warmed.setdefault((id(trace), id(layout)), trace)

    wrap(columnar, "precompute_decompositions", "columnar.warm_s", leave=warmed)

    def compiled(span, args, kwargs, program):
        count("kernels.lookups")
        if program.content_hash not in tracer.kernels_seen:
            tracer.kernels_seen.add(program.content_hash)
            count("kernels.compiles")

    for module in (kernels_mod, simulator_mod):
        wrap(module, "compile_kernel", "kernels.compile_s", leave=compiled)
    for module in (kernels_mod, executor_mod):
        wrap(module, "prewarm", "kernels.compile_s")

    simulator = simulator_mod.Simulator
    wrap(simulator, "__init__", "simulator.build_s")

    def run_enter(parent, args, kwargs):
        trace = _argument(args, kwargs, 1, "trace")
        fraction = _argument(args, kwargs, 2, "warmup_fraction", 0.0)
        return "simulator.self_s", {"warm": int(len(trace) * fraction) > 0, "calls": 0}

    def run_leave(span, args, kwargs, result):
        if not args[0].kernel_used:
            count("simulator.kernel_fallbacks")

    wrap(simulator, "run", "simulator.self_s", enter=run_enter, leave=run_leave)

    def pipeline_enter(parent, args, kwargs):
        info = parent[INFO] if parent is not None else None
        if info is None or "warm" not in info:
            return "pipeline.measured_s", None
        warmup = info["warm"] and info["calls"] == 0
        info["calls"] += 1
        return ("pipeline.warmup_s" if warmup else "pipeline.measured_s"), None

    def pipeline_leave(span, args, kwargs, outcome):
        count("pipeline.sim_instructions", outcome.instructions)
        count("pipeline.sim_cycles", outcome.cycles)

    wrap(
        pipeline_mod.OutOfOrderPipeline,
        "run",
        "pipeline.measured_s",
        enter=pipeline_enter,
        leave=pipeline_leave,
    )

    wrap(
        accounting_mod.EnergyAccountant,
        "report",
        "accounting.report_s",
        leave=lambda span, args, kwargs, result: count("accounting.reports"),
    )

    store = store_mod.ResultStore

    def got(span, args, kwargs, result):
        count("store.gets")
        if result is not None:
            count("store.get_hits")

    wrap(store, "put", "store.put_s", leave=lambda *a: count("store.puts"))
    wrap(store, "get", "store.get_s", leave=got)
    wrap(store, "record", "store.record_s")
    wrap(store, "write_manifest", "store.manifest_s")
    wrap(store, "check_manifest", "store.manifest_s")
    for module in (store_mod, executor_mod):
        wrap(module, "result_to_dict", "store.serialize_s")
        wrap(module, "result_from_dict", "store.deserialize_s")

    for name in ("run_start", "cell", "run_end", "serve_request"):
        wrap(
            telemetry_mod.TelemetryJournal,
            name,
            "telemetry.append_s",
            leave=lambda *a: count("telemetry.records"),
        )

    def executed(span, args, kwargs, result):
        ended = time.time()
        started = ended - (span[END] - span[START]) / 1e9
        tracer.executors.append(executor_run(args[0], started, ended))

    wrap(executor_mod.ParallelExecutor, "run", "executor.self_s", leave=executed)

    def evaluated(span, args, kwargs, evaluations):
        count("dse.batches")
        count("dse.evaluations", len(evaluations))
        tracer.counts["dse.cells_simulated"] = args[0].simulated

    wrap(dse_mod.Evaluator, "evaluate", "dse.batch_self_s", leave=evaluated)

    def frontier(span, args, kwargs, result):
        tracer.counts["dse.frontier_size"] = len(result[0])

    wrap(dse_mod, "extract_frontier", "dse.frontier_s", leave=frontier)

    def dispatched(span, args, kwargs, result):
        method, path = args[1], args[2]
        tracer.dispatches.append((method, path, span[START], span[END]))

    server = serve_mod.ReproServer
    wrap(server, "dispatch", "serve.self_s", leave=dispatched)
    wrap(server, "journal_request", "serve.self_s")


def snapshot(tracer: Tracer) -> dict:
    """JSON-able copy of what the tracer recorded (spans, counters, dispatches)."""
    return {
        "spans": tracer.spans,
        "counts": dict(tracer.counts),
        "dispatches": tracer.dispatches,
        # distinct addresses decomposed, per (trace, layout) pair warmed
        "addresses_warmed": sum(
            len(set(trace.addresses)) for trace in tracer.warmed.values()
        ),
    }


def partition(spans: List[list], window_start: int, window_end: int) -> Dict[str, float]:
    """Seconds of ``[window_start, window_end]`` attributed to each metric.

    A span's self intervals are its duration minus its children.  Self
    intervals of different threads may overlap (``repro serve`` runs a sweep
    thread beside its request threads); overlapping time is shared evenly
    among the threads active in it.  What no span covers is ``other.self_s``,
    so the values sum to the window by construction.
    """
    children = defaultdict(list)
    for index, span in enumerate(spans):
        if span[PARENT] is not None:
            children[span[PARENT]].append(index)
    events = []
    for index, span in enumerate(spans):
        if not span[END]:
            continue
        cursor = span[START]
        pieces = []
        for child in sorted(children[index], key=lambda c: spans[c][START]):
            if spans[child][START] > cursor:
                pieces.append((cursor, spans[child][START]))
            cursor = max(cursor, spans[child][END])
        if span[END] > cursor:
            pieces.append((cursor, span[END]))
        for start, end in pieces:
            start, end = max(start, window_start), min(end, window_end)
            if end > start:
                events.append((start, 1, span[KEY]))
                events.append((end, -1, span[KEY]))
    events.sort(key=lambda event: (event[0], event[1]))
    totals: Dict[str, float] = defaultdict(float)
    active: Dict[str, int] = defaultdict(int)
    running = 0
    previous = window_start
    for moment, delta, key in events:
        if running and moment > previous:
            share = (moment - previous) / running
            for name, pieces in active.items():
                if pieces:
                    totals[name] += share * pieces
        previous = moment
        active[key] += delta
        running += delta
    result = {name: totals.get(name, 0.0) / 1e9 for name in PARTITION}
    result["other.self_s"] = (window_end - window_start) / 1e9 - sum(result.values())
    return result


def layer_metrics(data: dict, window_start: int, window_end: int) -> Dict[str, float]:
    """Per-layer metrics of one traced window, from a :func:`snapshot`.

    Executor, serve, byte-count and model metrics come from elsewhere.
    """
    counts = data["counts"]
    metrics = partition(data["spans"], window_start, window_end)
    for name in (
        "synthetic.traces",
        "synthetic.instructions",
        "kernels.compiles",
        "kernels.lookups",
        "simulator.kernel_fallbacks",
        "pipeline.sim_instructions",
        "pipeline.sim_cycles",
        "accounting.reports",
        "store.puts",
        "store.gets",
        "telemetry.records",
        "dse.batches",
        "dse.evaluations",
        "dse.cells_simulated",
        "dse.frontier_size",
    ):
        metrics[name] = float(counts.get(name, 0.0))
    metrics["columnar.addresses_warmed"] = float(data["addresses_warmed"])
    lookups = counts.get("kernels.lookups", 0.0)
    metrics["kernels.hit_ratio"] = (
        (lookups - counts.get("kernels.compiles", 0.0)) / lookups if lookups else 0.0
    )
    gets = counts.get("store.gets", 0.0)
    metrics["store.get_hit_ratio"] = counts.get("store.get_hits", 0.0) / gets if gets else 0.0
    simulated = metrics["pipeline.warmup_s"] + metrics["pipeline.measured_s"]
    instructions = metrics["pipeline.sim_instructions"]
    cycles = metrics["pipeline.sim_cycles"]
    metrics["pipeline.ns_per_inst"] = simulated * 1e9 / instructions if instructions else 0.0
    metrics["pipeline.ns_per_cycle"] = simulated * 1e9 / cycles if cycles else 0.0
    reports = metrics["accounting.reports"]
    metrics["accounting.us_per_report"] = (
        metrics["accounting.report_s"] * 1e6 / reports if reports else 0.0
    )
    return metrics
