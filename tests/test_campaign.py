"""Tests for the campaign subsystem: spec hashing, store, executor, aggregate."""

from __future__ import annotations

import errno
import json
import multiprocessing
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import repro

import repro.campaign.executor as executor_mod
from repro.campaign.aggregate import results_from_store, summarize_store
from repro.campaign.executor import ParallelExecutor
from repro.campaign.spec import (
    CampaignCell,
    CampaignSpec,
    campaign_preset,
    cell_key,
    config_from_dict,
    config_to_dict,
)
from repro.campaign.store import (
    ResultStore,
    StoreWriteError,
    result_from_dict,
    result_to_dict,
)
from repro.obs import metrics as obs_metrics
from repro.obs.telemetry import TelemetryJournal
from repro.sim.config import MalecParameters, SimulationConfig
from repro.sim.simulator import Simulator, run_configuration
from repro.workloads.suites import benchmark_profile
from repro.workloads.synthetic import generate_trace

INSTRUCTIONS = 600
WARMUP = 0.25
BENCHMARKS = ("gzip", "swim", "djpeg")
CONFIGS = (SimulationConfig.base_1ldst(), SimulationConfig.malec())


def small_spec(**overrides) -> CampaignSpec:
    defaults = dict(
        name="test",
        configurations=CONFIGS,
        benchmarks=BENCHMARKS,
        instructions=INSTRUCTIONS,
        warmup_fraction=WARMUP,
    )
    defaults.update(overrides)
    return CampaignSpec(**defaults)


def a_cell(**overrides) -> CampaignCell:
    defaults = dict(
        benchmark="gzip",
        config=CONFIGS[0],
        instructions=INSTRUCTIONS,
        warmup_fraction=WARMUP,
    )
    defaults.update(overrides)
    return CampaignCell(**defaults)


def run_python(script: str) -> subprocess.CompletedProcess:
    """Run ``script`` in a fresh interpreter that imports this ``repro``.

    A hang fails the test through ``subprocess.TimeoutExpired``.
    """
    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )


def assert_results_equal(left, right) -> None:
    assert left.config_name == right.config_name
    assert left.cycles == right.cycles
    assert left.instructions == right.instructions
    assert left.loads == right.loads
    assert left.stores == right.stores
    assert left.stats == right.stats
    assert left.energy.cycles == right.energy.cycles
    assert set(left.energy.structures) == set(right.energy.structures)
    for name, item in left.energy.structures.items():
        other = right.energy.structures[name]
        assert item.dynamic_pj == pytest.approx(other.dynamic_pj)
        assert item.leakage_pj == pytest.approx(other.leakage_pj)


class TestSpec:
    def test_cells_cover_the_full_grid(self):
        cells = small_spec().cells()
        assert len(cells) == len(BENCHMARKS) * len(CONFIGS)
        assert len({cell.key() for cell in cells}) == len(cells)

    def test_config_dict_round_trip(self):
        config = SimulationConfig.malec(
            l1_hit_latency=3,
            malec_options=MalecParameters(result_buses=2, way_determination="wdu"),
        )
        assert config_from_dict(config_to_dict(config)) == config

    def test_cell_key_is_stable_across_instances(self):
        assert cell_key(a_cell()) == cell_key(a_cell())

    def test_cell_key_tracks_every_identity_field(self):
        base = a_cell()
        assert cell_key(a_cell(benchmark="swim")) != cell_key(base)
        assert cell_key(a_cell(instructions=INSTRUCTIONS + 1)) != cell_key(base)
        assert cell_key(a_cell(warmup_fraction=0.3)) != cell_key(base)
        assert cell_key(a_cell(seed=1)) != cell_key(base)
        renamed = replace(CONFIGS[0], name="other")
        assert cell_key(a_cell(config=renamed)) != cell_key(base)
        retuned = replace(CONFIGS[1], malec_options=MalecParameters(result_buses=1))
        assert cell_key(a_cell(config=retuned)) != cell_key(a_cell(config=CONFIGS[1]))

    def test_duplicate_configuration_names_rejected(self):
        with pytest.raises(ValueError):
            small_spec(configurations=(CONFIGS[0], CONFIGS[0]))

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(KeyError):
            small_spec(benchmarks=("gzip", "not-a-benchmark"))

    def test_presets_build(self):
        for name in ("fig4", "fig4-mini", "sec6d"):
            spec = campaign_preset(name)
            assert spec.cells()
        assert len(campaign_preset("fig4").benchmarks) == 38
        with pytest.raises(KeyError):
            campaign_preset("nope")


class TestStore:
    def test_round_trip_preserves_the_result(self, tmp_path):
        cell = a_cell()
        trace = generate_trace(
            benchmark_profile(cell.benchmark), INSTRUCTIONS, seed=cell.trace_seed()
        )
        result = run_configuration(cell.config, trace, warmup_fraction=WARMUP)
        restored = result_from_dict(result_to_dict(result))
        assert_results_equal(result, restored)

        store = ResultStore(tmp_path / "camp")
        assert store.get(cell) is None
        store.put(cell, result)
        assert_results_equal(store.get(cell), result)
        assert len(store) == 1

    def test_get_missing_cell_returns_none(self, tmp_path):
        assert ResultStore(tmp_path).get(a_cell()) is None

    def test_records_carry_full_provenance(self, tmp_path):
        cell = a_cell(benchmark="djpeg", config=CONFIGS[1])
        trace = generate_trace(
            benchmark_profile("djpeg"), INSTRUCTIONS, seed=cell.trace_seed()
        )
        store = ResultStore(tmp_path)
        store.put(cell, run_configuration(cell.config, trace, warmup_fraction=WARMUP))
        (record,) = list(store.records())
        assert record["benchmark"] == "djpeg"
        assert record["suite"] == "MB2"
        assert record["config_name"] == "MALEC"
        assert config_from_dict(record["config"]) == CONFIGS[1]
        assert record["key"] == cell.key()


class TestExecutor:
    def test_serial_sweep_writes_one_record_per_cell(self, tmp_path):
        store = ResultStore(tmp_path / "camp")
        executor = ParallelExecutor(jobs=1, store=store)
        results = executor.run(small_spec())
        assert len(executor.completed_cells) == len(BENCHMARKS) * len(CONFIGS)
        assert not executor.skipped_cells
        assert len(store) == len(BENCHMARKS) * len(CONFIGS)
        assert store.manifest()["name"] == "test"
        assert results.configurations == [config.name for config in CONFIGS]

    def test_resume_skips_completed_cells(self, tmp_path):
        store = ResultStore(tmp_path / "camp")
        spec = small_spec()
        first = ParallelExecutor(jobs=1, store=store)
        baseline = first.run(spec)

        events = []
        second = ParallelExecutor(
            jobs=1, store=store, progress=lambda e, c, d, t: events.append(e)
        )
        resumed = second.run(spec)
        assert not second.completed_cells
        assert len(second.skipped_cells) == len(spec.cells())
        assert events == ["skipped"] * len(spec.cells())
        for benchmark in BENCHMARKS:
            for config in CONFIGS:
                assert_results_equal(
                    resumed.run_for(benchmark).results[config.name],
                    baseline.run_for(benchmark).results[config.name],
                )

    def test_partial_store_runs_only_missing_cells(self, tmp_path):
        store = ResultStore(tmp_path / "camp")
        spec = small_spec()
        cells = spec.cells()
        seeded = ParallelExecutor(jobs=1, store=store)
        # Pre-compute only the first benchmark's cells.
        mini = small_spec(benchmarks=BENCHMARKS[:1])
        seeded.run(mini)

        executor = ParallelExecutor(jobs=1, store=store)
        executor.run(spec)
        assert len(executor.skipped_cells) == len(CONFIGS)
        assert len(executor.completed_cells) == len(cells) - len(CONFIGS)

    def test_parallel_results_equal_serial(self, tmp_path):
        spec = small_spec()
        serial = ParallelExecutor(jobs=1).run(spec)
        executor = ParallelExecutor(jobs=2, store=ResultStore(tmp_path / "par"))
        parallel = executor.run(spec)
        if not executor.used_pool:
            pytest.skip("process pool unavailable on this platform")
        for benchmark in BENCHMARKS:
            for config in CONFIGS:
                assert_results_equal(
                    parallel.run_for(benchmark).results[config.name],
                    serial.run_for(benchmark).results[config.name],
                )

    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError):
            ParallelExecutor(jobs=0)

    def test_every_cell_runs_the_specialized_kernel(self, monkeypatch):
        # Campaigns have no kernel choice: each cell of a serial fig4-mini
        # sweep runs on its configuration's specialized kernel.
        used = []
        run = Simulator.run

        def recording_run(simulator, *args, **kwargs):
            result = run(simulator, *args, **kwargs)
            used.append(simulator.kernel_used)
            return result

        monkeypatch.setattr(Simulator, "run", recording_run)
        spec = replace(campaign_preset("fig4-mini"), instructions=300)
        ParallelExecutor(jobs=1).run(spec)
        assert used == [True] * len(spec.cells())

    def test_pool_workers_inherit_the_parents_kernels(self, tmp_path, monkeypatch):
        # The parent compiles every kernel before the pool forks, so the
        # workers' initializer prewarm only hits the inherited cache: every
        # kernel source is generated in the parent process.
        if multiprocessing.get_all_start_methods()[0] != "fork":
            pytest.skip("workers inherit the parent's kernels only by fork")
        from repro.sim import kernels

        log = tmp_path / "generated-by.txt"
        generate_source = kernels.generate_source

        def recording_generate_source(spec, digest="unhashed"):
            with open(log, "a") as handle:
                handle.write(f"{os.getpid()}\n")
            return generate_source(spec, digest)

        monkeypatch.setattr(kernels, "_CACHE", {})
        monkeypatch.setattr(kernels, "generate_source", recording_generate_source)
        executor = ParallelExecutor(jobs=2)
        executor.run(small_spec(benchmarks=BENCHMARKS[:2], instructions=300))
        assert executor.used_pool
        pids = log.read_text().split()
        assert len(pids) == len(CONFIGS)
        assert set(pids) == {str(os.getpid())}

    def test_killed_workers_end_in_a_serial_finish(self):
        # Every pool worker SIGKILLs itself on its first cell.  The sweep
        # must not hang: the broken pool raises and the serial pass
        # computes every cell, exactly as a jobs=1 sweep does.
        if multiprocessing.get_all_start_methods()[0] != "fork":
            pytest.skip("the patched executor reaches workers only by fork")
        script = """
import json, os, signal
from dataclasses import replace
import repro.campaign.executor as executor_mod
from repro.campaign.spec import campaign_preset
from repro.campaign.store import result_to_dict

parent = os.getpid()
execute_cell = executor_mod._execute_cell

def die_in_workers(cell):
    if os.getpid() != parent:
        os.kill(os.getpid(), signal.SIGKILL)
    return execute_cell(cell)

executor_mod._execute_cell = die_in_workers
executor = executor_mod.ParallelExecutor(jobs=2)
results = executor.run(replace(campaign_preset("fig4-mini"), instructions=300))
cells = {
    f"{run.benchmark}/{name}": result_to_dict(result)
    for run in results.runs
    for name, result in run.results.items()
}
print(json.dumps({"used_pool": executor.used_pool, "cells": cells}))
"""
        child = run_python(script)
        assert child.returncode == 0, child.stderr
        out = json.loads(child.stdout.splitlines()[-1])
        assert out["used_pool"]
        serial = ParallelExecutor(jobs=1).run(
            replace(campaign_preset("fig4-mini"), instructions=300)
        )
        expected = {
            f"{run.benchmark}/{name}": result_to_dict(result)
            for run in serial.runs
            for name, result in run.results.items()
        }
        assert out["cells"] == json.loads(json.dumps(expected))

    def test_interrupted_sweep_stops_its_workers(self):
        # The first cell finishes and the progress callback interrupts the
        # sweep while the other worker is stalled in its chunk: run() must
        # raise at once instead of waiting for a chunk it would drop.
        if multiprocessing.get_all_start_methods()[0] != "fork":
            pytest.skip("the patched executor reaches workers only by fork")
        script = """
import os, time
from dataclasses import replace
import repro.campaign.executor as executor_mod
from repro.campaign.spec import campaign_preset

parent = os.getpid()
execute_cell = executor_mod._execute_cell

def stall_in_workers(cell):
    first = cell.benchmark == "gzip" and cell.config.name == "Base1ldst"
    if os.getpid() != parent and not first:
        time.sleep(600)
    return execute_cell(cell)

def interrupt(event, cell, done, total):
    raise KeyboardInterrupt

executor_mod._execute_cell = stall_in_workers
executor = executor_mod.ParallelExecutor(jobs=2, progress=interrupt)
try:
    executor.run(replace(campaign_preset("fig4-mini"), instructions=300))
except KeyboardInterrupt:
    print("interrupted", executor.used_pool)
"""
        child = run_python(script)
        assert child.returncode == 0, child.stderr
        assert child.stdout.split() == ["interrupted", "True"]


class TestWriteErrors:
    """A failed write of the sweep's own output, a store record or a journal
    line, ends the run as itself at any job count: it is no pool failure,
    so nothing warns of one, counts a pool fallback or simulates a cell
    after it."""

    @pytest.mark.parametrize("jobs", (1, 2))
    @pytest.mark.parametrize("scheme", ("json", "sqlite"))
    @pytest.mark.parametrize("target", ("store", "journal"))
    def test_a_full_disk_ends_the_run(self, tmp_path, monkeypatch, target, scheme, jobs):
        store = ResultStore(f"{scheme}:{tmp_path / 'store'}")
        journal = TelemetryJournal(tmp_path / "telemetry.jsonl")
        owner, method = (store.backend, "put") if target == "store" else (journal, "cell")
        write = getattr(owner, method)
        writes = []

        def fill_the_disk_on_the_fourth(*args, **kwargs):
            writes.append(args)
            if len(writes) == 4:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return write(*args, **kwargs)

        execute_cell = executor_mod._execute_cell
        late_cells = []

        def execute_in_order(cell):
            if len(writes) >= 4:
                late_cells.append(cell)
            return execute_cell(cell)

        warnings = []
        monkeypatch.setattr(owner, method, fill_the_disk_on_the_fourth)
        monkeypatch.setattr(executor_mod, "_execute_cell", execute_in_order)
        monkeypatch.setattr(executor_mod.logger, "warning", lambda *args: warnings.append(args))
        obs_metrics.registry.clear()
        obs_metrics.enable()
        try:
            executor = ParallelExecutor(jobs=jobs, store=store, journal=journal)
            with pytest.raises(StoreWriteError) as raised:
                executor.run(small_spec())
        finally:
            obs_metrics.disable()
        named = store.url if target == "store" else str(journal.path)
        assert named in str(raised.value)
        assert raised.value.__cause__.errno == errno.ENOSPC
        assert len(writes) == 4 and not late_cells and not warnings
        assert "campaign.pool_fallbacks" not in obs_metrics.registry.snapshot()
        assert executor.used_pool == (jobs > 1)


class TestAggregate:
    def test_results_rebuilt_from_store_match_the_sweep(self, tmp_path):
        store = ResultStore(tmp_path / "camp")
        spec = small_spec()
        live = ParallelExecutor(jobs=1, store=store).run(spec)
        rebuilt = results_from_store(store)
        assert rebuilt.configurations == live.configurations
        assert [run.benchmark for run in rebuilt.runs] == [
            run.benchmark for run in live.runs
        ]
        base = CONFIGS[0].name
        assert rebuilt.geomean_normalized_cycles(base) == pytest.approx(
            live.geomean_normalized_cycles(base)
        )
        assert rebuilt.geomean_normalized_energy(base) == pytest.approx(
            live.geomean_normalized_energy(base)
        )

    def test_summarize_store_reports_geomeans(self, tmp_path):
        store = ResultStore(tmp_path / "camp")
        ParallelExecutor(jobs=1, store=store).run(small_spec())
        text = summarize_store(store)
        assert "geo. mean all (time)" in text
        assert "Base1ldst" in text and "MALEC" in text

    def test_ambiguous_store_raises(self, tmp_path):
        store = ResultStore(tmp_path / "camp")
        ParallelExecutor(jobs=1, store=store).run(small_spec(benchmarks=("gzip",)))
        ParallelExecutor(jobs=1, store=store).run(
            small_spec(benchmarks=("gzip",), instructions=INSTRUCTIONS + 100)
        )
        with pytest.raises(ValueError):
            results_from_store(store)
        # Filtering by trace length disambiguates.
        assert results_from_store(store, instructions=INSTRUCTIONS).runs


class TestResultsAssembly:
    def test_default_executor_persists_every_cell(self, tmp_path):
        store = ResultStore(tmp_path / "camp")
        results = ParallelExecutor(store=store).run(small_spec())
        assert len(store) == len(BENCHMARKS) * len(CONFIGS)
        rebuilt = results_from_store(store)
        base = CONFIGS[0].name
        assert rebuilt.geomean_normalized_cycles(base) == pytest.approx(
            results.geomean_normalized_cycles(base)
        )

    def test_run_for_returns_the_first_match_and_raises_for_unknown(self):
        results = ParallelExecutor(jobs=1).run(small_spec(configurations=CONFIGS[:1]))
        assert results.run_for("swim").benchmark == "swim"
        duplicate = replace(results.runs[0], suite="other")
        results.runs.append(duplicate)
        assert results.run_for(duplicate.benchmark) is results.runs[0]
        with pytest.raises(KeyError):
            results.run_for("not-a-benchmark")
