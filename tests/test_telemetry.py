"""Tests for the durable telemetry layer (``repro.obs.telemetry``).

The guarantees under test:

* **deterministic merge** — registry dumps merge order-independently
  (counters sum, gauges max, histograms bucket-wise), so a ``jobs=4``
  metrics snapshot is reproducible despite nondeterministic pool arrival;
* **job-count invariance** — ``jobs=1`` and ``jobs=4`` sweeps agree exactly
  on the counters that only depend on the work done (cells computed, store
  skips, kernel cache misses);
* **bit-identity** — enabling telemetry (metrics + journal) never changes
  simulation results;
* **durability** — journal records round-trip through the reader, survive a
  truncated final line, and validate against the checked-in schema.

Plus the query surface: ``repro obs history/compare/cells/export`` and the
OpenMetrics exposition round-trip.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import subprocess
import sys
import threading
import time

import pytest

from repro.campaign.executor import ParallelExecutor
from repro.campaign.spec import campaign_preset
from repro.campaign.store import ResultStore
from repro.cli import main
from repro.obs import hostinfo
from repro.obs import metrics as obs_metrics
from repro.obs import logs as obs_logs
from repro.obs import telemetry
from repro.obs.metrics import MetricsRegistry, render_openmetrics
from repro.obs.telemetry import TelemetryJournal
from repro.sim.config import SimulationConfig

INSTRUCTIONS = 400


@pytest.fixture(autouse=True)
def _isolate_obs_state():
    """Metrics/logging are process-global: leave them as we found them."""
    obs_metrics.disable()
    obs_metrics.registry.clear()
    yield
    obs_metrics.disable()
    obs_metrics.registry.clear()
    obs_logs.reset()


def _mini_spec():
    return campaign_preset("fig4-mini").with_overrides(instructions=INSTRUCTIONS)


def _append_requests(path, name):
    """Append 1,000 request records of 200 to 1,100 bytes to one journal."""
    journal = TelemetryJournal(path)
    for index in range(1000):
        journal.serve_request("GET", f"/{name}/" + "x" * (200 + index % 900), 200, 0.0)


# ----------------------------------------------------------------------
# Registry dump / merge
# ----------------------------------------------------------------------
class TestDumpMerge:
    def _sample_registry(self) -> MetricsRegistry:
        registry = MetricsRegistry()
        registry.counter("cells").inc(3)
        registry.gauge("rate").set(2.5)
        histogram = registry.histogram("seconds", (0.1, 1.0))
        histogram.observe(0.05)
        histogram.observe(5.0)
        return registry

    def test_dump_keeps_instrument_kinds(self):
        dump = self._sample_registry().dump()
        assert dump["cells"]["kind"] == "counter"
        assert dump["rate"]["kind"] == "gauge"
        assert dump["seconds"]["kind"] == "histogram"
        # Dump must be JSON-able as-is (it crosses the pool boundary and
        # lands in journal footers).
        json.dumps(dump)

    def test_merge_semantics(self):
        dump = self._sample_registry().dump()
        target = MetricsRegistry()
        target.counter("cells").inc(1)
        target.gauge("rate").set(4.0)
        target.merge(dump)
        snapshot = target.snapshot()
        assert snapshot["cells"] == 4.0  # counters sum
        assert snapshot["rate"] == 4.0  # gauges keep the max
        histogram = snapshot["seconds"]
        assert histogram["count"] == 2
        assert histogram["min"] == 0.05 and histogram["max"] == 5.0
        assert histogram["buckets"] == {"0.1": 1, "1.0": 0, "+Inf": 1}

    def test_merge_is_order_independent(self):
        a = self._sample_registry().dump()
        b = MetricsRegistry()
        b.counter("cells").inc(7)
        b.gauge("rate").set(1.0)
        hist = b.histogram("seconds", (0.1, 1.0))
        hist.observe(0.5)
        b = b.dump()

        ab, ba = MetricsRegistry(), MetricsRegistry()
        ab.merge(a)
        ab.merge(b)
        ba.merge(b)
        ba.merge(a)
        assert ab.snapshot() == ba.snapshot()
        assert ab.dump() == ba.dump()

    def test_merge_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            MetricsRegistry().merge({"x": {"kind": "mystery", "value": 1}})

    def test_merge_rejects_bucket_mismatch(self):
        target = MetricsRegistry()
        target.histogram("seconds", (0.1, 1.0))
        source = MetricsRegistry()
        source.histogram("seconds", (0.5, 2.0)).observe(0.3)
        with pytest.raises(ValueError):
            target.merge(source.dump())

    def test_merge_kind_conflict_raises(self):
        target = MetricsRegistry()
        target.gauge("x").set(1.0)
        with pytest.raises(TypeError):
            target.merge({"x": {"kind": "counter", "value": 1.0}})


# ----------------------------------------------------------------------
# OpenMetrics exposition
# ----------------------------------------------------------------------
class TestOpenMetrics:
    def test_render_parse_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("kernel.cache.hit").inc(12)
        registry.gauge("campaign.cells_per_sec").set(33.5)
        histogram = registry.histogram("campaign.cell_seconds", (0.1, 1.0))
        histogram.observe(0.05)
        histogram.observe(0.5)
        histogram.observe(9.0)
        text = render_openmetrics(registry.dump())
        assert text.endswith("# EOF\n")
        samples = telemetry.parse_openmetrics(text)
        assert samples["kernel_cache_hit_total"] == 12
        assert samples["campaign_cells_per_sec"] == 33.5
        # Buckets are cumulative in the exposition (per-bin internally).
        assert samples['campaign_cell_seconds_bucket{le="0.1"}'] == 1
        assert samples['campaign_cell_seconds_bucket{le="1.0"}'] == 2
        assert samples['campaign_cell_seconds_bucket{le="+Inf"}'] == 3
        assert samples["campaign_cell_seconds_count"] == 3

    def test_render_is_deterministic(self):
        registry = MetricsRegistry()
        registry.counter("b").inc()
        registry.counter("a").inc()
        text = render_openmetrics(registry.dump())
        assert text == render_openmetrics(registry.dump())
        assert text.index("# TYPE a counter") < text.index("# TYPE b counter")

    def test_parse_rejects_missing_eof(self):
        with pytest.raises(ValueError):
            telemetry.parse_openmetrics("# TYPE a counter\na_total 1\n")

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            telemetry.parse_openmetrics("a_total not-a-number\n# EOF\n")


# ----------------------------------------------------------------------
# Journal writer / reader
# ----------------------------------------------------------------------
class TestJournal:
    def test_round_trip_and_schema(self, tmp_path):
        path = tmp_path / "telemetry.jsonl"
        journal = TelemetryJournal(path)
        journal.run_start("fig4-mini", cells_total=2, jobs=1)
        journal.cell(
            key="abc",
            benchmark="gzip",
            config="MALEC",
            config_hash="deadbeef",
            trace_hash="",
            instructions=400,
            wall_seconds=0.25,
            worker_pid=123,
            source="computed",
            # written by journals from before the single run path; the
            # schema keeps both optional so old journals still validate
            scheduler="event",
            frontend="columnar",
        )
        journal.cell(
            key="def",
            benchmark="swim",
            config="MALEC",
            wall_seconds=0.0,
            worker_pid=123,
            source="store",
        )
        journal.run_end(
            cells_computed=1,
            cells_skipped=1,
            elapsed_seconds=0.5,
            metrics=MetricsRegistry().dump(),
        )
        records = telemetry.read_journal(path)
        assert [r["record"] for r in records] == [
            "run_start",
            "cell",
            "cell",
            "run_end",
        ]
        assert telemetry._journal_schema_errors(path) == []
        runs = telemetry.load_runs(path)
        assert len(runs) == 1
        run = runs[0]
        assert run.header["host"]["cpu_count"] >= 1
        assert run.footer["cells_per_sec"] == 4.0
        assert len(run.cells) == 2
        assert [c["key"] for c in run.computed_cells] == ["abc"]

    def test_old_kernel_fields_still_load(self, tmp_path, capsys):
        # Sweeps used to journal each cell's kernel and its fallback reason
        # and to tally fallbacks in the footer; the schema keeps the fields
        # optional, so such journals still load, validate and print.
        path = tmp_path / "telemetry.jsonl"
        journal = TelemetryJournal(path)
        journal.run_start("fig4-mini", cells_total=1, jobs=1)
        journal.cell(
            key="abc",
            benchmark="gzip",
            config="MALEC",
            wall_seconds=0.25,
            worker_pid=123,
            source="computed",
            kernel="specialized",
            kernel_used=False,
            kernel_fallback_reason="collector attached",
        )
        footer = {
            "record": "run_end",
            "run_id": journal.run_id,
            "cells_total": 1,
            "cells_computed": 1,
            "cells_skipped": 0,
            "elapsed_seconds": 0.5,
            "cells_per_sec": 2.0,
            "kernel_fallbacks": {"collector attached": 1},
        }
        with path.open("a") as handle:
            handle.write(json.dumps(footer) + "\n")
        assert telemetry._journal_schema_errors(path) == []
        (run,) = telemetry.load_runs(path)
        assert [cell["key"] for cell in run.computed_cells] == ["abc"]
        assert main(["obs", "history", str(path)]) == 0
        assert main(["obs", "cells", str(path)]) == 0
        assert "MALEC" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "start",
        [threading.Thread, multiprocessing.get_context("fork").Process],
        ids=["threads", "processes"],
    )
    def test_threads_appending_to_one_journal_write_no_blank_line(self, tmp_path, start):
        # repro serve appends request records on a handler thread while a
        # sweep appends on its worker thread, to one file; two sweeps on one
        # store append from two processes.  No appender may take another's
        # line in flight for a torn tail.
        path = tmp_path / "telemetry.jsonl"
        workers = [start(target=_append_requests, args=(path, name)) for name in "ab"]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        lines = path.read_text().splitlines()
        assert len(lines) == 2000 and all(lines)

    def test_a_fork_during_an_append_does_not_keep_the_journal_locked(self, tmp_path):
        # repro serve's executor forks pool workers while handler threads
        # append.  A child forked mid-append keeps a copy of the locked
        # descriptor for as long as it lives, so the next append must not
        # wait on it.
        path = tmp_path / "telemetry.jsonl"
        journal = TelemetryJournal(path)
        fork = multiprocessing.get_context("fork")
        children = []
        write = os.write

        def write_and_fork(fd, data):
            if not children:
                children.append(fork.Process(target=time.sleep, args=(60,)))
                children[0].start()
            return write(fd, data)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(os, "write", write_and_fork)
            journal.serve_request("GET", "/a", 200, 0.0)
        second = threading.Thread(
            target=journal.serve_request, args=("GET", "/b", 200, 0.0), daemon=True
        )
        try:
            second.start()
            second.join(timeout=10)
            assert not second.is_alive()
        finally:
            for child in children:
                child.terminate()
                child.join()
            second.join()
        assert len(path.read_text().splitlines()) == 2

    @pytest.mark.parametrize("scheme", ("json", "sqlite"))
    def test_resolve_journal_follows_the_store(self, tmp_path, scheme):
        url = f"{scheme}:{tmp_path / 'store'}"
        store = ResultStore(url)
        assert telemetry.resolve_journal(url) == store.telemetry_path
        store.close()

    def test_truncated_final_line_is_tolerated(self, tmp_path):
        path = tmp_path / "telemetry.jsonl"
        journal = TelemetryJournal(path)
        journal.run_start("fig4-mini", cells_total=1, jobs=1)
        with path.open("a") as handle:
            handle.write('{"record": "cell", "run_id"')  # crash mid-append
        records = telemetry.read_journal(path)
        assert len(records) == 1
        # ... but corruption elsewhere is a real error.
        bad = tmp_path / "bad.jsonl"
        bad.write_text('not json\n{"record": "run_end", "run_id": "x"}\n')
        with pytest.raises(json.JSONDecodeError):
            telemetry.read_journal(bad)

    def test_torn_tail_between_runs_keeps_both_runs(self, tmp_path):
        path = tmp_path / "telemetry.jsonl"
        _write_comparable_journal(path)
        before = telemetry.read_journal(path)
        with path.open("a") as handle:
            handle.write('{"record": "cell", "run_id": "torn')  # crash mid-append
        _write_comparable_journal(path, run_ids=("20260103T000000-cccccc",))
        records = telemetry.read_journal(path)
        second = [r for r in records if r["run_id"] == "20260103T000000-cccccc"]
        assert records[: len(before)] == before
        assert [r["record"] for r in second] == ["run_start", "cell", "cell", "run_end"]
        assert telemetry._journal_schema_errors(path) == []
        runs = telemetry.load_runs(path)
        assert [run.run_id for run in runs] == [
            "20260101T000000-aaaaaa",
            "20260102T000000-bbbbbb",
            "20260103T000000-cccccc",
        ]
        assert runs[-1].header is not None and runs[-1].footer is not None
        # Only a line closed by a blank line (or the last line) is torn.
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"record": "cell"\n\n{"record": "run_end", "run_id": "x"}\n')
        assert telemetry.read_journal(bad) == [{"record": "run_end", "run_id": "x"}]

    def test_schema_rejects_bad_records(self):
        schema = telemetry.load_schema()
        with pytest.raises(telemetry.SchemaError):
            telemetry.validate_record({"record": "nonsense", "run_id": "x"}, schema)
        with pytest.raises(telemetry.SchemaError):
            telemetry.validate_record({"record": "cell"}, schema)
        with pytest.raises(telemetry.SchemaError):
            telemetry.validate_record(
                {"record": "cell", "run_id": "x", "wall_seconds": -1.0}, schema
            )

    def test_resolve_run_tokens(self, tmp_path):
        path = tmp_path / "telemetry.jsonl"
        for run_id in ("20260101T000000-aa", "20260102T000000-bb"):
            journal = TelemetryJournal(path, run_id=run_id)
            journal.run_start("fig4-mini", cells_total=0, jobs=1)
            journal.run_end(0, 0, 0.0)
        runs = telemetry.load_runs(path)
        assert telemetry.resolve_run(runs, "last").run_id.endswith("bb")
        assert telemetry.resolve_run(runs, "prev").run_id.endswith("aa")
        assert telemetry.resolve_run(runs, "20260102").run_id.endswith("bb")
        with pytest.raises(ValueError):
            telemetry.resolve_run(runs, "2026")  # ambiguous
        with pytest.raises(ValueError):
            telemetry.resolve_run(runs, "nope")
        with pytest.raises(ValueError):
            telemetry.resolve_run([], "last")


# ----------------------------------------------------------------------
# Executor integration
# ----------------------------------------------------------------------
#: counters that must agree exactly between jobs=1 and jobs=4 sweeps of the
#: same spec (they count work done, not how it was scheduled)
_INVARIANT_COUNTERS = (
    "campaign.cells_completed",
    "campaign.cells_skipped",
    "kernel.cache.miss",
    "kernel.cache.hit",
)


def _sweep_counters(jobs, store=None):
    obs_metrics.registry.clear()
    obs_metrics.enable()
    executor = ParallelExecutor(jobs=jobs, store=store)
    executor.run(_mini_spec())
    snapshot = obs_metrics.registry.snapshot()
    obs_metrics.disable()
    return {name: snapshot.get(name, 0.0) for name in _INVARIANT_COUNTERS}


class TestExecutorTelemetry:
    def test_job_count_invariant_counters(self):
        serial = _sweep_counters(jobs=1)
        parallel = _sweep_counters(jobs=4)
        assert serial == parallel
        assert serial["campaign.cells_completed"] == 15
        assert serial["kernel.cache.miss"] == 0.0  # prewarm absorbs compiles
        assert serial["kernel.cache.hit"] == 15

    def test_store_skips_invariant_across_job_counts(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        _sweep_counters(jobs=1, store=store)  # populate
        serial = _sweep_counters(jobs=1, store=store)
        parallel = _sweep_counters(jobs=4, store=store)
        assert serial == parallel
        assert serial["campaign.cells_skipped"] == 15
        assert serial["campaign.cells_completed"] == 0

    def test_results_bit_identical_with_telemetry_on(self, tmp_path):
        spec = _mini_spec()
        baseline = ParallelExecutor(jobs=1).run(spec)

        obs_metrics.enable()
        store = ResultStore(tmp_path / "store")
        observed = ParallelExecutor(jobs=1, store=store).run(spec)
        assert (tmp_path / "store" / "telemetry.jsonl").exists()

        for base_run, obs_run in zip(baseline.runs, observed.runs):
            assert base_run.benchmark == obs_run.benchmark
            for name, base_result in base_run.results.items():
                obs_result = obs_run.results[name]
                assert base_result.cycles == obs_result.cycles
                assert base_result.stats == obs_result.stats
                assert base_result.energy.total_pj == obs_result.energy.total_pj

    def test_journal_written_and_schema_valid(self, tmp_path):
        obs_metrics.enable()
        store = ResultStore(tmp_path / "store")
        executor = ParallelExecutor(jobs=2, store=store)
        executor.run(_mini_spec())
        journal_path = store.telemetry_path
        assert journal_path.exists()
        assert telemetry._journal_schema_errors(journal_path) == []

        runs = telemetry.load_runs(journal_path)
        assert len(runs) == 1
        run = runs[0]
        assert run.header["campaign"] == "fig4-mini"
        assert run.footer["cells_computed"] == 15
        assert isinstance(run.footer["metrics"], dict)
        assert len(run.computed_cells) == 15
        cell = run.computed_cells[0]
        for field in ("key", "config_hash", "wall_seconds", "worker_pid"):
            assert field in cell
        for field in ("kernel", "kernel_used", "scheduler", "frontend"):
            assert field not in cell

        # Resume: the footer counts the store hits; no cell record repeats them.
        executor2 = ParallelExecutor(jobs=2, store=store)
        executor2.run(_mini_spec())
        runs = telemetry.load_runs(journal_path)
        assert len(runs) == 2
        assert runs[1].footer["cells_skipped"] == 15
        assert runs[1].cells == []

    def test_pool_merges_worker_side_counters(self, tmp_path):
        obs_metrics.enable()
        executor = ParallelExecutor(jobs=4)
        executor.run(_mini_spec())
        snapshot = obs_metrics.registry.snapshot()
        if executor.used_pool:
            # Kernel compiles and trace decodes happen in the workers; their
            # counters only exist in the parent snapshot via the merge.
            assert snapshot.get("kernel.cache.hit") == 15
            assert snapshot.get("kernel.prewarm", 0) > 0
        assert snapshot["campaign.cells_completed"] == 15

    def test_no_journal_without_metrics_or_path(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        executor = ParallelExecutor(jobs=1, store=store)
        executor.run(_mini_spec())
        assert executor.active_journal is None
        assert not store.telemetry_path.exists()

    def test_run_headers_ask_git_once_per_process(self, tmp_path, monkeypatch):
        hostinfo._git_revision.cache_clear()
        started = []
        run = subprocess.run

        def counting_run(*args, **kwargs):
            started.append(args)
            return run(*args, **kwargs)

        monkeypatch.setattr(subprocess, "run", counting_run)
        path = tmp_path / "journal.jsonl"
        for _ in range(2):
            ParallelExecutor(jobs=1, journal=path).run(_mini_spec())
        assert len(started) == 1
        first, second = telemetry.load_runs(path)
        assert first.header["host"] == second.header["host"]

    def test_explicit_journal_path_without_metrics(self, tmp_path):
        path = tmp_path / "explicit.jsonl"
        executor = ParallelExecutor(jobs=1, journal=path)
        executor.run(_mini_spec())
        assert path.exists()
        runs = telemetry.load_runs(path)
        assert runs[0].footer["cells_computed"] == 15
        # No metrics switch -> no registry dump in the footer.
        assert "metrics" not in runs[0].footer


# ----------------------------------------------------------------------
# Kernel-layer counters
# ----------------------------------------------------------------------
class TestKernelCounters:
    def test_cache_hit_miss_and_prewarm(self):
        import repro.sim.kernels as kernels

        config = SimulationConfig.malec()
        saved = dict(kernels._CACHE)
        kernels._CACHE.clear()
        try:
            obs_metrics.enable()
            kernels.compile_kernel(config)
            kernels.compile_kernel(config)
            kernels.prewarm([config])
            snapshot = obs_metrics.registry.snapshot()
            assert snapshot["kernel.cache.miss"] == 1
            assert snapshot["kernel.cache.hit"] == 1
            assert snapshot["kernel.prewarm"] == 1
        finally:
            kernels._CACHE.clear()
            kernels._CACHE.update(saved)


# ----------------------------------------------------------------------
# repro obs CLI
# ----------------------------------------------------------------------
def _write_comparable_journal(
    path, run_ids=("20260101T000000-aaaaaa", "20260102T000000-bbbbbb")
):
    """Runs with overlapping computed cells (the second regresses on one)."""
    cells_a = {"k1": 0.10, "k2": 0.20}
    cells_b = {"k1": 0.10, "k2": 0.30}
    for run_id, cells in zip(run_ids, (cells_a, cells_b)):
        journal = TelemetryJournal(path, run_id=run_id)
        journal.run_start("fig4-mini", cells_total=len(cells), jobs=1)
        for key, seconds in cells.items():
            journal.cell(
                key=key,
                benchmark="gzip",
                config=f"CFG_{key}",
                wall_seconds=seconds,
                worker_pid=1,
                source="computed",
            )
        registry = MetricsRegistry()
        registry.counter("campaign.cells_completed").inc(len(cells))
        journal.run_end(
            cells_computed=len(cells),
            cells_skipped=0,
            elapsed_seconds=sum(cells.values()),
            metrics=registry.dump(),
        )


class TestObsCli:
    def test_history_lists_both_runs(self, tmp_path, capsys):
        _write_comparable_journal(tmp_path / "telemetry.jsonl")
        assert main(["obs", "history", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "20260101T000000-aaaaaa" in out
        assert "20260102T000000-bbbbbb" in out

    def test_compare_reports_deltas_and_checks(self, tmp_path, capsys):
        _write_comparable_journal(tmp_path / "telemetry.jsonl")
        assert main(["obs", "compare", str(tmp_path), "prev", "last"]) == 0
        out = capsys.readouterr().out
        assert "+50.0%" in out
        assert "CFG_k2" in out
        # --check turns the threshold into an exit code.
        assert (
            main(
                [
                    "obs",
                    "compare",
                    str(tmp_path),
                    "prev",
                    "last",
                    "--threshold",
                    "25",
                    "--check",
                ]
            )
            == 1
        )
        assert (
            main(
                [
                    "obs",
                    "compare",
                    str(tmp_path),
                    "prev",
                    "last",
                    "--threshold",
                    "80",
                    "--check",
                ]
            )
            == 0
        )

    def test_cells_slowest(self, tmp_path, capsys):
        _write_comparable_journal(tmp_path / "telemetry.jsonl")
        assert main(["obs", "cells", str(tmp_path), "--slowest", "1"]) == 0
        out = capsys.readouterr().out
        assert "CFG_k2" in out  # the slowest cell of the last run
        assert "CFG_k1" not in out

    def test_export_parses_as_openmetrics(self, tmp_path, capsys):
        _write_comparable_journal(tmp_path / "telemetry.jsonl")
        assert main(["obs", "export", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        samples = telemetry.parse_openmetrics(out)
        assert samples["campaign_cells_completed_total"] == 2

    def test_missing_journal_is_usage_error(self, tmp_path, capsys):
        assert main(["obs", "history", str(tmp_path)]) == 2
        assert "no telemetry journal" in capsys.readouterr().err

    def test_unknown_run_token_is_usage_error(self, tmp_path, capsys):
        _write_comparable_journal(tmp_path / "telemetry.jsonl")
        assert main(["obs", "cells", str(tmp_path), "--run", "nope"]) == 2
        assert "no run matching" in capsys.readouterr().err
