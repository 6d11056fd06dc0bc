"""Campaign execution: fan a sweep out over a process pool, resume from a store.

:class:`ParallelExecutor` turns a :class:`~repro.campaign.spec.CampaignSpec`
into an :class:`~repro.analysis.experiments.ExperimentResults`:

* cells already present in the attached :class:`~repro.campaign.store.ResultStore`
  are loaded instead of re-simulated (incremental resume);
* pending cells run either serially in-process or on a
  :class:`~concurrent.futures.ProcessPoolExecutor` (``jobs > 1``), with
  graceful fallback to the serial path when the platform cannot spawn worker
  processes (restricted sandboxes) or the pool breaks mid-sweep (a killed
  worker raises ``BrokenProcessPool`` instead of hanging the sweep), while a
  failed store or journal write raises
  :class:`~repro.campaign.store.StoreWriteError` at any job count;
* every workload trace — synthetic *or* ingested — is resolved **once in the
  parent** as a :class:`~repro.workloads.columnar.ColumnarTrace`, and its
  ``.rtrc`` bytes (:meth:`~repro.workloads.columnar.ColumnarTrace.to_bytes`:
  a header plus the buffers the trace already holds, no re-encode) are
  shipped to the workers through the pool initializer (or with a later
  run's chunks, below) — workers lift each
  trace into columns at most once per process instead of regenerating (or
  re-parsing) it per task;
* cells are dispatched as one pool task per chunk, so scheduling overhead is
  one pickled batch per chunk rather than one round-trip per cell, and
  results stream back chunk by chunk as they finish;
* outside a ``with executor:`` block each :meth:`~ParallelExecutor.run`
  starts its own pool and joins its workers before it returns; inside one,
  every run reuses one pool of ``jobs`` workers, started by the first run
  that needs it and joined when the block exits (a design-space
  exploration runs all its batches so).  Forked workers hold only what
  existed when they were forked, so a chunk of a later run carries the
  ``.rtrc`` bytes of its traces that the pool was not started with, and
  the worker prewarms its cells' kernels before the first of them;
* the serial path shares one process-wide trace cache (the same cache the
  workers use), so repeated sweeps in one process — the perf harness's
  best-of-N runs, an interactive session re-running presets — never
  regenerate a trace;
* simulation itself is deterministic (seeded RNGs everywhere), so serial and
  parallel sweeps of the same spec produce bit-identical results.

Progress is reported through an optional callback
``progress(event, cell, done, total)`` with ``event`` one of ``"skipped"``
(loaded from the store), ``"completed"`` (freshly simulated).
"""

from __future__ import annotations

import os
import time
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.analysis.experiments import BenchmarkRun, ExperimentResults
from repro.api import RunOptions
from repro.campaign.spec import CampaignCell, CampaignSpec
from repro.campaign.store import (
    ResultStore,
    StoreWriteError,
    open_store,
    result_from_dict,
    result_to_dict,
)
from repro.obs import metrics as obs_metrics
from repro.obs.logs import get_logger
from repro.obs.telemetry import TelemetryJournal
from repro.sim.kernels import content_hash, prewarm
from repro.sim.simulator import SimulationResult, Simulator
from repro.workloads.columnar import ColumnarTrace
from repro.workloads.ingest import window
from repro.workloads.registry import registered_trace, workload_suite
from repro.workloads.suites import benchmark_profile
from repro.workloads.synthetic import generate_trace

logger = get_logger(__name__)

#: (benchmark, instructions, trace seed, trace hash): the trace cache key;
#: the hash is empty for synthetic workloads and pins the content of
#: ingested ones, so a name re-registered with different trace bytes never
#: hits a stale cache entry.
TraceKey = Tuple[str, int, int, str]

ProgressCallback = Callable[[str, CampaignCell, int, int], None]

#: process-wide trace cache: used by the serial path of every executor in
#: this process and by pool workers (one decode per trace per process)
_PROCESS_TRACES: Dict[TraceKey, ColumnarTrace] = {}

#: serialized traces shipped by the parent (worker side): installed by the
#: pool initializer and by chunks of later runs on a kept pool
_WORKER_TRACE_BYTES: Dict[TraceKey, bytes] = {}

#: soft cap on cached traces; a long-lived process sweeping many distinct
#: (benchmark, length, seed) shapes resets the cache instead of growing it
#: without bound (a reset only costs regeneration, never correctness)
_TRACE_CACHE_LIMIT = 256


def _trace_key(cell: CampaignCell) -> TraceKey:
    return (cell.benchmark, cell.instructions, cell.trace_seed(), cell.trace_hash)


def cell_trace(cell: CampaignCell) -> ColumnarTrace:
    """Resolve (or fetch) the deterministic trace of ``cell``.

    Resolution order: the process-wide cache, the ``.rtrc`` bytes a pool
    parent shipped, the ingested-trace registry (truncated to the cell's
    instruction budget), and finally synthetic generation from the benchmark
    profile.  Every harness that simulates a workload resolves it here, so
    ``repro figure4``, ``report`` and ``sweep`` run the same trace.
    """
    key = _trace_key(cell)
    trace = _PROCESS_TRACES.get(key)
    if obs_metrics.enabled():
        obs_metrics.registry.counter(
            "trace.cache.hit" if trace is not None else "trace.cache.miss"
        ).inc()
    if trace is None:
        if len(_PROCESS_TRACES) >= _TRACE_CACHE_LIMIT:
            _PROCESS_TRACES.clear()
        payload = _WORKER_TRACE_BYTES.get(key)
        if payload is not None:
            # Pool worker: decode the bytes the parent shipped (cheaper than
            # regenerating, and the resolution cost was paid exactly once).
            # The bytes go straight into columns — a handful of strided
            # slices instead of one Instruction per record — and the view
            # (plus its cached pipeline arrays) is reused by every cell of
            # this trace in the worker.
            trace = ColumnarTrace.from_rtrc_bytes(payload)
        else:
            ingested = registered_trace(cell.benchmark)
            if ingested is not None:
                trace = (
                    ingested
                    if len(ingested) <= cell.instructions
                    else window(ingested, 0, cell.instructions)
                )
            else:
                profile = benchmark_profile(cell.benchmark)
                trace = generate_trace(
                    profile, instructions=cell.instructions, seed=cell.trace_seed()
                )
        _PROCESS_TRACES[key] = trace
    return trace


def _execute_cell(cell: CampaignCell) -> SimulationResult:
    """Run one cell's simulation on its (cached) trace and the specialized
    kernel of its configuration."""
    return Simulator(cell.config).run(
        cell_trace(cell), warmup_fraction=cell.warmup_fraction
    )


def _init_worker(trace_bytes: Dict[TraceKey, bytes]) -> None:
    """Pool initializer: install the parent's serialized traces and reset
    metrics.

    A forked worker inherits the parent's already-populated metrics registry;
    counting on top of it would double every parent-side value once the
    parent merges the worker's chunk dumps back, so the registry starts from
    a clean slate either way.
    """
    _WORKER_TRACE_BYTES.update(trace_bytes)
    obs_metrics.registry.clear()


def _pool_chunk(
    cells: List[CampaignCell], trace_bytes: Dict[TraceKey, bytes], metrics_on: bool
) -> Tuple[list, Optional[dict]]:
    """Process-pool task: simulate a chunk of cells, one record per cell.

    First the worker installs ``trace_bytes``, the traces of the chunk that
    the pool was not started with, sets the metrics switch to the parent's
    (fork inherits it, spawn would not, and a kept pool outlives a run) and
    prewarms the cells' kernels.  Kernels are cached per content hash (see
    :mod:`repro.sim.kernels`): a forked worker inherits those the parent
    compiled before the pool started, and compiles any other here, uncounted,
    so the kernel cache's hit and miss counts match a serial run's.

    The worker finds each cell's trace in its per-process cache (decoded
    once from the shipped bytes).  Results cross the process boundary
    as plain dictionaries (the store's JSON shape) rather than live objects,
    keeping the pickled payload small and identical to what lands on disk.
    The third element of a record is an observation payload: the
    ``(worker pid, start, end)`` epoch timing (two clock reads per
    multi-millisecond cell, so it rides along unconditionally).

    Returns ``(records, dump)``.  With metrics on, ``dump`` holds what this
    worker counted since its previous chunk (the registry is cleared after
    each dump), so the parent merges every chunk's dump exactly once and a
    ``jobs=4`` metrics snapshot includes worker-side counters; with metrics
    off it is ``None``.
    """
    _WORKER_TRACE_BYTES.update(trace_bytes)
    if metrics_on:
        obs_metrics.enable()
    else:
        obs_metrics.disable()
    prewarm(cell.config for cell in cells)
    records = []
    for cell in cells:
        start = time.time()
        payload = result_to_dict(_execute_cell(cell))
        records.append((cell.key(), payload, (os.getpid(), start, time.time())))
    dump = None
    if obs_metrics.enabled():
        dump = obs_metrics.registry.dump()
        obs_metrics.registry.clear()
    return records, dump


class ParallelExecutor:
    """Executes campaign specs; the one engine behind the CLI, bench and tests.

    Used as a context manager, it keeps one process pool across the runs of
    the block (see the module docstring)::

        with ParallelExecutor(jobs=4) as executor:
            for spec in specs:
                executor.run(spec)

    Parameters
    ----------
    jobs:
        Worker process count; ``None`` (default) uses one worker per CPU
        core, ``1`` forces the serial in-process path.  Shorthand for
        ``options=RunOptions(jobs=...)``.
    store:
        Optional store: a live :class:`ResultStore`, a store URL
        (``json:dir`` / ``sqlite:db``) or a bare directory path.  When
        given, completed cells are persisted as they finish and
        already-stored cells are skipped.  Shorthand for
        ``options=RunOptions(store=...)``.
    options:
        A :class:`repro.api.RunOptions` (jobs, store URL).  Campaigns run
        the specialized kernel only, so any other ``kernel`` raises
        ``ValueError``, as a collector does: both belong to
        :meth:`Simulator.run`.  Mixing ``options=`` with the
        ``jobs=``/``store=`` keywords raises ``ValueError``.
    progress:
        Optional ``progress(event, cell, done, total)`` callback.
    trace_log:
        Optional :class:`repro.obs.traceevent.TraceEventLog` (duck-typed).
        When given, every executed cell is recorded as a wall-clock span on
        its worker's track (serial cells on the parent's), viewable in
        Perfetto / ``chrome://tracing``.
    journal:
        Telemetry journal destination.  ``None`` (default) auto-enables the
        journal next to the attached store (``telemetry.jsonl``) when
        metrics are on, and stays silent otherwise; a path writes there
        regardless of the metrics switch; a live
        :class:`~repro.obs.telemetry.TelemetryJournal` is used as-is (note
        its run id is fixed — pass a path when calling ``run`` repeatedly).
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        store: Optional[Union[str, ResultStore]] = None,
        progress: Optional[ProgressCallback] = None,
        trace_log=None,
        journal=None,
        options: Optional[RunOptions] = None,
    ) -> None:
        if options is not None:
            if jobs is not None or store is not None:
                raise ValueError("pass options= or the jobs=/store= keywords, not both")
        else:
            options = RunOptions(jobs=jobs, store=store)
        if options.collector is not None:
            raise ValueError(
                "campaign execution does not support collectors; attach one "
                "through Simulator.run instead"
            )
        if options.kernel not in (None, "specialized"):
            raise ValueError(
                f"campaign execution runs the specialized kernel only, not "
                f"{options.kernel!r}; run another through Simulator.run instead"
            )
        self.options = options
        jobs = options.jobs
        if jobs is None:
            jobs = os.cpu_count() or 1
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs
        self.store = open_store(options.store)
        self.progress = progress
        self.trace_log = trace_log
        self.journal = journal
        #: the journal the last run() wrote to (None when telemetry was off)
        self.active_journal: Optional[TelemetryJournal] = None
        #: cells loaded from the store / freshly simulated by the last run()
        self.skipped_cells: List[CampaignCell] = []
        self.completed_cells: List[CampaignCell] = []
        #: (cell, worker pid, start, end) epoch timings of executed cells
        self.cell_timings: List[Tuple[CampaignCell, int, float, float]] = []
        #: True if the last run() actually used a process pool
        self.used_pool = False
        #: inside a ``with`` block: the pool runs keep, and the trace keys
        #: its workers were started with
        self._scoped = False
        self._pool = None
        self._pool_traces: frozenset = frozenset()

    def __enter__(self) -> "ParallelExecutor":
        self._scoped = True
        return self

    def __exit__(self, *exc_info) -> None:
        self._scoped = False
        self._close_pool()

    # ------------------------------------------------------------------
    def run(self, spec: CampaignSpec) -> ExperimentResults:
        """Execute ``spec`` and return the assembled sweep results."""
        self.skipped_cells = []
        self.completed_cells = []
        self.cell_timings = []
        self.used_pool = False
        self.active_journal = self._resolve_journal()
        if self.store is not None:
            self.store.write_manifest(spec)

        cells = spec.cells()
        total = len(cells)
        done = 0
        started = time.perf_counter()
        results: Dict[str, SimulationResult] = {}
        if self.active_journal is not None:
            self.active_journal.run_start(spec.name, total, self.jobs)

        pending: List[CampaignCell] = []
        for cell in cells:
            stored = self.store.get(cell) if self.store is not None else None
            if stored is not None:
                results[cell.key()] = stored
                self.skipped_cells.append(cell)
                done += 1
                self._report("skipped", cell, done, total)
            else:
                pending.append(cell)

        logger.debug(
            "campaign: %d cells (%d stored, %d pending), jobs=%d",
            total,
            len(self.skipped_cells),
            len(pending),
            self.jobs,
        )
        if pending:
            # Compile every kernel once, here: workers forked after this
            # inherit the cache (their prewarm only hits it), and the serial
            # path runs on it.  Prewarm compiles are uncounted and per-cell
            # probes all hit, so the kernel cache hit/miss counters are
            # invariant across job counts.
            prewarm(cell.config for cell in pending)
            if self.jobs > 1 and len(pending) > 1:
                done = self._run_pool(pending, results, done, total)
            # Any cells a broken pool failed to deliver fall through to the
            # serial path, which always finishes the sweep.
            remaining = [cell for cell in pending if cell.key() not in results]
            parent_pid = os.getpid()
            for cell in remaining:
                start = time.time()
                result = _execute_cell(cell)
                end = time.time()
                self._observe_cell(cell, parent_pid, start, end)
                self._journal_cell(cell, end - start, parent_pid)
                done = self._record(cell, result, results, done, total)

        elapsed = time.perf_counter() - started
        self._flush_run_observations(elapsed)
        if self.store is not None:
            # Fail loudly if a concurrent sweep of a *different* campaign
            # clobbered this store's manifest while we ran (json: stores;
            # an sqlite: store never loses manifest writes).
            self.store.check_manifest()
        if self.active_journal is not None:
            self.active_journal.run_end(
                cells_computed=len(self.completed_cells),
                cells_skipped=len(self.skipped_cells),
                elapsed_seconds=elapsed,
                metrics=(
                    obs_metrics.registry.dump() if obs_metrics.enabled() else None
                ),
            )
        return self._assemble(spec, cells, results)

    # ------------------------------------------------------------------
    def _resolve_journal(self) -> Optional[TelemetryJournal]:
        """The journal this run writes to, or ``None`` when telemetry is off.

        A fresh :class:`TelemetryJournal` (fresh run id) is built per run
        unless the caller handed in a live instance.
        """
        journal = self.journal
        if journal is None:
            if self.store is not None and obs_metrics.enabled():
                return TelemetryJournal(self.store.telemetry_path)
            return None
        if isinstance(journal, TelemetryJournal):
            return journal
        return TelemetryJournal(journal)

    def _journal_cell(self, cell: CampaignCell, wall_seconds: float, pid: int) -> None:
        """Append the journal record of one computed cell.

        Store hits are not journaled per cell: the run footer counts them
        (``cells_skipped``), and no journal reader looks at them.
        """
        if self.active_journal is None:
            return
        record: Dict[str, object] = {
            "key": cell.key(),
            "benchmark": cell.benchmark,
            "config": cell.config.name,
            "config_hash": content_hash(cell.config),
            "trace_hash": cell.trace_hash,
            "instructions": cell.instructions,
            "wall_seconds": max(0.0, wall_seconds),
            "worker_pid": pid,
            "source": "computed",
        }
        try:
            self.active_journal.cell(**record)
        except OSError as error:
            raise StoreWriteError(
                f"telemetry journal {self.active_journal.path}: "
                f"cannot append cell {record['key']}: {error}"
            ) from error

    # ------------------------------------------------------------------
    def _observe_cell(
        self, cell: CampaignCell, pid: int, start: float, end: float
    ) -> None:
        """Record one executed cell's timing (trace span + timing list)."""
        self.cell_timings.append((cell, pid, start, end))
        log = self.trace_log
        if log is not None:
            log.name_process(pid, "repro worker" if pid != os.getpid() else "repro")
            log.add_span(
                f"{cell.benchmark} {cell.config.name}",
                "campaign.cell",
                start * 1e6,
                (end - start) * 1e6,
                pid=pid,
                args={
                    "benchmark": cell.benchmark,
                    "config": cell.config.name,
                    "instructions": cell.instructions,
                },
            )

    def _flush_run_observations(self, elapsed: float) -> None:
        """Flush the run's aggregate metrics (one shot, only when enabled)."""
        if not obs_metrics.enabled():
            return
        registry = obs_metrics.registry
        completed = len(self.completed_cells)
        registry.counter("campaign.cells_completed").inc(completed)
        registry.counter("campaign.cells_skipped").inc(len(self.skipped_cells))
        registry.gauge("campaign.cells_per_sec").set(
            completed / elapsed if elapsed > 0 else 0.0
        )
        durations = registry.histogram("campaign.cell_seconds")
        busy_by_pid: Dict[int, float] = {}
        for _cell, pid, start, end in self.cell_timings:
            durations.observe(end - start)
            busy_by_pid[pid] = busy_by_pid.get(pid, 0.0) + (end - start)
        registry.gauge("campaign.workers").set(len(busy_by_pid))
        for index, pid in enumerate(sorted(busy_by_pid)):
            registry.gauge(f"campaign.worker_utilization.{index}").set(
                busy_by_pid[pid] / elapsed if elapsed > 0 else 0.0
            )

    def _report(self, event: str, cell: CampaignCell, done: int, total: int) -> None:
        if self.progress is not None:
            self.progress(event, cell, done, total)

    def _record(
        self,
        cell: CampaignCell,
        result: SimulationResult,
        results: Dict[str, SimulationResult],
        done: int,
        total: int,
    ) -> int:
        results[cell.key()] = result
        if self.store is not None:
            self.store.put(cell, result)
        self.completed_cells.append(cell)
        done += 1
        self._report("completed", cell, done, total)
        return done

    # ------------------------------------------------------------------
    def _trace_payloads(self, pending: List[CampaignCell]) -> Dict[TraceKey, bytes]:
        """Generate every needed trace once in the parent; return the bytes.

        Generated traces stay in the process-wide cache, so the serial
        fallback (and any later serial sweep in this process) reuses them.
        """
        payloads: Dict[TraceKey, bytes] = {}
        for cell in pending:
            key = _trace_key(cell)
            if key not in payloads:
                payloads[key] = cell_trace(cell).to_bytes()
        return payloads

    def _start_pool(self, pending: List[CampaignCell]) -> None:
        """Start a pool whose workers hold the traces of ``pending``.  A pool
        kept for a ``with`` block gets all ``jobs`` workers, since later runs
        may bring more cells; a run's own gets no more workers than cells."""
        from concurrent.futures import ProcessPoolExecutor

        payloads = self._trace_payloads(pending)
        workers = self.jobs if self._scoped else min(self.jobs, len(pending))
        self._pool = ProcessPoolExecutor(
            max_workers=workers, initializer=_init_worker, initargs=(payloads,)
        )
        self._pool_traces = frozenset(payloads)

    def _close_pool(self, stop: bool = False) -> None:
        """Shut the pool down, if there is one, and join its workers, so none
        outlives its owner.  ``stop`` terminates them first, as
        ``Pool.terminate()`` did: a run cut short (an interrupt, a failed
        store write, a broken pool) must not wait for chunks whose results
        are dropped."""
        pool, self._pool = self._pool, None
        self._pool_traces = frozenset()
        if pool is None:
            return
        if stop:
            # Before Python 3.14 the executor has no public call for this.
            for process in list((pool._processes or {}).values()):
                process.terminate()
        pool.shutdown(wait=True)

    def _run_pool(
        self,
        pending: List[CampaignCell],
        results: Dict[str, SimulationResult],
        done: int,
        total: int,
    ) -> int:
        """Run ``pending`` on a process pool; returns the updated done count.

        Pool failures (platforms without working multiprocessing, a worker
        killed mid-sweep, which breaks the pool with ``BrokenProcessPool``)
        are swallowed: whatever cells did not complete stay absent from
        ``results`` and the caller re-runs them serially.  A failed write of
        the parent's own (:class:`StoreWriteError`: a store record or a
        journal line) is no pool failure and ends the run, as at jobs=1.
        """
        # Imported here, not at module level, so importing the executor
        # costs no more than before.
        from concurrent.futures import as_completed

        by_key = {cell.key(): cell for cell in pending}
        try:
            if self._pool is None:
                self._start_pool(pending)
            # The traces the workers were not started with ride along with
            # each chunk whose cells use them.
            extra = self._trace_payloads(
                [cell for cell in pending if _trace_key(cell) not in self._pool_traces]
            )
            metrics_on = obs_metrics.enabled()
            # One pickled batch per chunk instead of one round-trip per cell;
            # chunks come back in completion order.
            chunksize = max(1, len(pending) // (min(self.jobs, len(pending)) * 4))
            self.used_pool = True
            try:
                futures = []
                for index in range(0, len(pending), chunksize):
                    chunk = pending[index : index + chunksize]
                    traces = {key: extra[key] for key in map(_trace_key, chunk) if key in extra}
                    futures.append(self._pool.submit(_pool_chunk, chunk, traces, metrics_on))
                for future in as_completed(futures):
                    records, dump = future.result()
                    if dump is not None:
                        # A chunk's counts since the worker's previous
                        # chunk: worker-side metrics are counters, which
                        # sum in any arrival order.
                        obs_metrics.registry.merge(dump)
                    for key, payload, (pid, start, end) in records:
                        cell = by_key[key]
                        self._observe_cell(cell, pid, start, end)
                        self._journal_cell(cell, end - start, pid)
                        done = self._record(
                            cell, result_from_dict(payload), results, done, total
                        )
            except BaseException:
                # A pool whose run was cut short is dropped; the next run
                # that needs one starts a fresh pool.
                self._close_pool(stop=True)
                raise
        except StoreWriteError:
            raise
        except (OSError, PermissionError, RuntimeError, ImportError) as error:
            # BrokenProcessPool (a RuntimeError: a worker died) and
            # BrokenPipe style failures land here; finish serially with
            # whatever is left.
            logger.warning(
                "campaign: process pool failed (%s: %s); finishing the "
                "remaining cells serially",
                type(error).__name__,
                error,
            )
            if obs_metrics.enabled():
                obs_metrics.registry.counter("campaign.pool_fallbacks").inc()
        finally:
            if not self._scoped:
                self._close_pool()
        return done

    # ------------------------------------------------------------------
    def _assemble(
        self,
        spec: CampaignSpec,
        cells: List[CampaignCell],
        results: Dict[str, SimulationResult],
    ) -> ExperimentResults:
        experiment = ExperimentResults(configurations=spec.configuration_names())
        by_benchmark: Dict[str, BenchmarkRun] = {}
        for cell in cells:
            run = by_benchmark.get(cell.benchmark)
            if run is None:
                run = by_benchmark[cell.benchmark] = BenchmarkRun(
                    benchmark=cell.benchmark, suite=workload_suite(cell.benchmark)
                )
                experiment.runs.append(run)
            run.results[cell.config.name] = results[cell.key()]
        return experiment
