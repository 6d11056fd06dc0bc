"""Tests for the observability subsystem (``repro.obs``).

The two hard guarantees the tentpole rests on are exercised here:

* **bit-identity** — attaching a collector / enabling metrics never changes
  a simulation's results (the golden fig4-mini comparison);
* **partition** — the cycle-attribution categories count every cycle exactly
  once, so they sum to the run's total cycle count.

Plus the supporting machinery: the metrics registry, the trace-event
exporter and its in-repo schema validator, collapsed-stack rendering, the
progress reporter, run-scoped logging and the host identity block.
"""

from __future__ import annotations

import io
import json
import logging
import pstats

import pytest

from repro.api import RunOptions
from repro.campaign.executor import ParallelExecutor
from repro.campaign.spec import campaign_preset
from repro.obs import hostinfo
from repro.obs import metrics as obs_metrics
from repro.obs import logs as obs_logs
from repro.obs.attribution import attribute_run, format_attribution
from repro.obs.collector import CYCLE_CATEGORIES, RunCollector
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.progress import ProgressReporter, make_progress
from repro.obs.traceevent import (
    SchemaError,
    TraceEventLog,
    load_schema,
    validate_trace_events,
)
from repro.sim.config import SimulationConfig
from repro.sim.simulator import run_configuration
from repro.workloads.suites import benchmark_profile
from repro.workloads.synthetic import generate_trace

INSTRUCTIONS = 1500
WARMUP = 0.25


@pytest.fixture(autouse=True)
def _isolate_obs_state():
    """Metrics/logging are process-global: leave them as we found them."""
    obs_metrics.disable()
    obs_metrics.registry.clear()
    yield
    obs_metrics.disable()
    obs_metrics.registry.clear()
    obs_logs.reset()


def _run(config, collector=None, benchmark="gzip"):
    trace = generate_trace(
        benchmark_profile(benchmark), instructions=INSTRUCTIONS
    )
    return run_configuration(
        config, trace, warmup_fraction=WARMUP, options=RunOptions(collector=collector)
    )


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------
class TestMetrics:
    def test_counter_increments_and_rejects_negative(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_set_and_inc(self):
        gauge = Gauge("g")
        gauge.set(2.5)
        gauge.inc(-0.5)
        assert gauge.value == 2.0

    def test_histogram_buckets_and_summary(self):
        histogram = Histogram("h", buckets=(1.0, 10.0))
        for value in (0.5, 5.0, 50.0):
            histogram.observe(value)
        assert histogram.count == 3
        assert histogram.sum == pytest.approx(55.5)
        assert histogram.min == pytest.approx(0.5)
        assert histogram.max == pytest.approx(50.0)
        assert histogram.mean == pytest.approx(55.5 / 3)

    def test_registry_get_or_create_and_kind_mismatch(self):
        registry = MetricsRegistry()
        counter = registry.counter("x")
        assert registry.counter("x") is counter
        with pytest.raises(TypeError):
            registry.gauge("x")

    def test_snapshot_is_json_able_and_sorted(self):
        registry = MetricsRegistry()
        registry.counter("b").inc(2)
        registry.gauge("a").set(1.0)
        registry.histogram("c").observe(0.01)
        snapshot = registry.snapshot()
        assert list(snapshot) == sorted(snapshot)
        payload = json.loads(json.dumps(snapshot))
        assert payload["b"] == 2
        assert "+Inf" in payload["c"]["buckets"]

    def test_module_enable_disable(self):
        assert not obs_metrics.enabled()
        obs_metrics.enable()
        assert obs_metrics.enabled()
        obs_metrics.disable()
        assert not obs_metrics.enabled()


# ----------------------------------------------------------------------
# Golden bit-identity and cycle attribution
# ----------------------------------------------------------------------
class TestIdentityAndAttribution:
    def test_results_bit_identical_with_collector_and_metrics(self):
        """The tentpole's hard constraint: observing a run never changes it."""
        config = SimulationConfig.malec()
        baseline = _run(config)
        obs_metrics.enable()
        observed = _run(config, collector=RunCollector(sample_every=50))
        assert observed.stats == baseline.stats
        assert observed.cycles == baseline.cycles
        assert observed.energy.total_pj == baseline.energy.total_pj

    def test_fig4_mini_campaign_bit_identical_with_metrics(self):
        spec = campaign_preset("fig4-mini").with_overrides(instructions=500)
        plain = ParallelExecutor(jobs=1).run(spec)
        obs_metrics.enable()
        observed = ParallelExecutor(jobs=1, trace_log=TraceEventLog()).run(spec)
        for before, after in zip(plain.runs, observed.runs):
            assert before.benchmark == after.benchmark
            for name, result in before.results.items():
                assert after.results[name].cycles == result.cycles
                assert after.results[name].stats == result.stats

    @pytest.mark.parametrize(
        "config",
        [SimulationConfig.malec(), SimulationConfig.base_1ldst()],
        ids=["malec", "base1ldst"],
    )
    def test_categories_partition_the_run(self, config):
        collector = RunCollector()
        result = _run(config, collector=collector)
        assert set(collector.cycle_categories) == set(CYCLE_CATEGORIES)
        assert collector.attributed_cycles == result.cycles
        assert collector.total_cycles == result.cycles

    def test_attribution_checks_and_formats(self):
        collector = RunCollector()
        result = _run(SimulationConfig.malec(), collector=collector)
        attribution = attribute_run("gzip", result, collector)
        attribution.check()
        assert attribution.attributed_cycles == result.cycles
        text = format_attribution(attribution)
        assert "cycles go to" in text
        assert "energy goes to" in text
        payload = attribution.as_dict()
        assert payload["total_cycles"] == result.cycles
        assert sum(payload["cycles"].values()) == result.cycles

    def test_attribution_without_collector_is_unattributed(self):
        result = _run(SimulationConfig.malec())
        attribution = attribute_run("gzip", result)
        attribution.check()
        assert attribution.cycles["unattributed"] == result.cycles

    def test_attribution_check_raises_on_mismatch(self):
        collector = RunCollector()
        result = _run(SimulationConfig.malec(), collector=collector)
        attribution = attribute_run("gzip", result, collector)
        attribution.cycles["commit"] += 1
        with pytest.raises(ValueError):
            attribution.check()

    def test_sampling_observes_occupancy(self):
        collector = RunCollector(sample_every=25)
        result = _run(SimulationConfig.malec(), collector=collector)
        assert collector.samples
        cycles = [sample[0] for sample in collector.samples]
        assert cycles == sorted(cycles)
        assert cycles[-1] <= result.cycles


# ----------------------------------------------------------------------
# Trace-event export + schema validation
# ----------------------------------------------------------------------
class TestTraceEvents:
    def test_log_round_trips_and_validates(self, tmp_path):
        log = TraceEventLog()
        log.name_process(1, "worker")
        log.add_span("cell", "campaign.cell", 10.0, 5.0, pid=1, tid=2)
        log.add_instant("rung 1", "dse.rung", 12.0, pid=1)
        log.add_counter("occupancy", "sim", 3.0, {"rob": 4, "lq": 1})
        assert len(log) == 4
        assert validate_trace_events(log.as_dict()) == 4
        target = tmp_path / "nested" / "trace.json"
        log.write(target)
        assert validate_trace_events(target.read_text()) == 4

    def test_metadata_events_are_idempotent(self):
        log = TraceEventLog()
        log.name_process(1, "worker")
        log.name_process(1, "worker")
        assert len(log) == 1

    def test_negative_duration_is_clamped(self):
        log = TraceEventLog()
        log.add_span("x", "c", 10.0, -5.0)
        assert log.events[0]["dur"] == 0.0

    def test_schema_rejects_bad_payloads(self):
        schema = load_schema()
        with pytest.raises(SchemaError):
            validate_trace_events({"no": "traceEvents"}, schema)
        with pytest.raises(SchemaError):
            validate_trace_events(
                {"traceEvents": [{"name": "x", "ph": "Z", "pid": 0, "tid": 0}]},
                schema,
            )
        with pytest.raises(SchemaError):
            validate_trace_events(
                {
                    "traceEvents": [
                        {"name": "x", "ph": "X", "pid": 0, "tid": 0, "ts": -1}
                    ]
                },
                schema,
            )

    def test_executor_emits_schema_valid_spans(self):
        spec = campaign_preset("fig4-mini").with_overrides(instructions=400)
        log = TraceEventLog()
        ParallelExecutor(jobs=1, trace_log=log).run(spec)
        assert validate_trace_events(log.as_dict()) == len(log)
        spans = [e for e in log.events if e["ph"] == "X"]
        assert len(spans) == len(spec.cells())


# ----------------------------------------------------------------------
# Profiling
# ----------------------------------------------------------------------
class TestProfile:
    def test_collapsed_stack_lines_are_well_formed(self):
        from repro.obs.profile import collapsed_stacks

        import cProfile

        def leaf():
            return sum(range(2000))

        def root():
            return leaf()

        profiler = cProfile.Profile()
        profiler.enable()
        root()
        profiler.disable()
        lines = collapsed_stacks(pstats.Stats(profiler))
        assert lines == sorted(lines)
        for line in lines:
            stack, _, weight = line.rpartition(" ")
            assert stack
            assert int(weight) > 0

    def test_run_profile_unknown_preset_raises(self):
        from repro.obs.profile import run_profile

        with pytest.raises(KeyError):
            run_profile("nope")

    def test_run_profile_writes_collapsed_output(self, tmp_path):
        from repro.obs.profile import run_profile

        target = tmp_path / "stacks.txt"
        report, count = run_profile(
            "fig4-mini", instructions=300, top=5, collapsed_out=target
        )
        assert "cumulative" in report
        assert "executor.py" in report  # the preset ran through the executor
        assert count == len(target.read_text().splitlines())


# ----------------------------------------------------------------------
# Host identity
# ----------------------------------------------------------------------
class TestHostMetadata:
    def test_host_block_keeps_an_explicit_revision(self):
        host = hostinfo.host_metadata("abc1234")
        assert set(host) == {"cpu_count", "machine", "platform", "python", "revision"}
        assert host["cpu_count"] >= 1
        assert host["python"] and host["platform"]
        assert host["revision"] == "abc1234"

    def test_revision_falls_back_outside_git(self, monkeypatch):
        monkeypatch.setattr(hostinfo, "_git_revision", lambda: None)
        assert hostinfo.detect_revision() == "worktree"
        assert hostinfo.detect_revision("unknown") == "unknown"
        assert hostinfo.host_metadata()["revision"] == "worktree"


# ----------------------------------------------------------------------
# Progress reporting
# ----------------------------------------------------------------------
class _Cell:
    def __init__(self, benchmark, config_name):
        self.benchmark = benchmark
        self.config = type("C", (), {"name": config_name})()


class _TtyStream(io.StringIO):
    def isatty(self):
        return True


class TestProgress:
    def test_non_tty_fallback_lines(self):
        stream = io.StringIO()
        reporter = ProgressReporter(stream=stream, fallback_lines=True)
        reporter("completed", _Cell("gzip", "MALEC"), 1, 2)
        reporter.finish()
        assert stream.getvalue() == "[1/2] completed gzip MALEC\n"

    def test_non_tty_silent_without_fallback(self):
        stream = io.StringIO()
        reporter = ProgressReporter(stream=stream, fallback_lines=False)
        reporter("completed", _Cell("gzip", "MALEC"), 1, 2)
        reporter.finish()
        assert stream.getvalue() == ""

    def test_tty_line_rewrites_and_pads(self):
        stream = _TtyStream()
        clock = iter(float(i) for i in range(10))
        reporter = ProgressReporter(
            stream=stream, min_interval=0.0, clock=lambda: next(clock)
        )
        assert reporter.interactive
        reporter("completed", _Cell("gzip", "A_very_long_config"), 1, 2)
        reporter("completed", _Cell("gzip", "B"), 2, 2)
        reporter.finish()
        output = stream.getvalue()
        assert output.count("\r") == 2
        assert output.endswith("\n")
        assert "cells/s" in output
        assert "eta" in output

    def test_make_progress_quiet_returns_none(self):
        assert make_progress(quiet=True) is None
        assert make_progress(quiet=False) is not None


# ----------------------------------------------------------------------
# Logging
# ----------------------------------------------------------------------
class TestLogs:
    def test_configure_attaches_run_context(self):
        stream = io.StringIO()
        obs_logs.configure(stream=stream)
        logger = obs_logs.get_logger("test")
        with obs_logs.run_context("sweep:fig4"):
            logger.info("hello")
        logger.info("outside")
        lines = stream.getvalue().splitlines()
        assert "[sweep:fig4] hello" in lines[0]
        assert "[-] outside" in lines[1]

    def test_json_lines_format(self):
        stream = io.StringIO()
        obs_logs.configure(json_lines=True, stream=stream)
        obs_logs.get_logger("test").warning("badness %d", 7)
        record = json.loads(stream.getvalue())
        assert record["level"] == "WARNING"
        assert record["message"] == "badness 7"
        assert record["logger"] == "repro.test"

    def test_quiet_wins_over_verbose(self):
        stream = io.StringIO()
        obs_logs.configure(verbose=True, quiet=True, stream=stream)
        assert logging.getLogger(obs_logs.ROOT_LOGGER).level == logging.ERROR

    def test_configure_is_idempotent(self):
        stream = io.StringIO()
        obs_logs.configure(stream=stream)
        obs_logs.configure(stream=stream)
        obs_logs.get_logger("test").info("once")
        assert stream.getvalue().count("once") == 1


# ----------------------------------------------------------------------
# Executor / campaign metrics
# ----------------------------------------------------------------------
class TestCampaignObservability:
    def test_metrics_flushed_after_run(self):
        obs_metrics.enable()
        spec = campaign_preset("fig4-mini").with_overrides(instructions=400)
        ParallelExecutor(jobs=1).run(spec)
        snapshot = obs_metrics.registry.snapshot()
        assert snapshot["campaign.cells_completed"] == len(spec.cells())
        assert snapshot["campaign.cells_skipped"] == 0
        assert snapshot["campaign.cells_per_sec"] > 0
        assert snapshot["campaign.cell_seconds"]["count"] == len(spec.cells())

    def test_no_metrics_when_disabled(self):
        spec = campaign_preset("fig4-mini").with_overrides(instructions=400)
        ParallelExecutor(jobs=1).run(spec)
        assert len(obs_metrics.registry) == 0
