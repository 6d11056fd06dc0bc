"""Tests for :mod:`repro.api`: RunOptions' fields, ``options=`` as the
only run keyword, and the executor's options=/keyword exclusivity rule."""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import pkgutil
import typing

import pytest

import repro
from repro.api import RunOptions
from repro.campaign.executor import ParallelExecutor
from repro.sim.config import SimulationConfig
from repro.sim.simulator import Simulator, run_configuration
from repro.workloads.suites import benchmark_profile
from repro.workloads.synthetic import generate_trace


class TestRunOptions:
    def test_fields(self):
        names = [field.name for field in dataclasses.fields(RunOptions)]
        assert names == ["kernel", "collector", "jobs", "store"]

    def test_bad_kernel_is_loud(self):
        trace = generate_trace(benchmark_profile("gzip"), 200)
        with pytest.raises(ValueError, match="kernel"):
            run_configuration(
                SimulationConfig.base_1ldst(), trace, options=RunOptions(kernel="quantum")
            )


class TestSimulatorOptions:
    def test_options_is_the_only_run_knob(self):
        for function in (Simulator.run, run_configuration):
            parameters = inspect.signature(function).parameters.values()
            keywords = [p.name for p in parameters if p.default is not p.empty]
            assert keywords == ["warmup_fraction", "options"]

    @pytest.mark.parametrize("keyword", ["collector", "frontend", "kernel"])
    def test_loose_keywords_are_gone(self, keyword):
        trace = generate_trace(benchmark_profile("gzip"), 200)
        with pytest.raises(TypeError):
            run_configuration(SimulationConfig.base_1ldst(), trace, **{keyword: None})


class TestExecutorOptions:
    def test_executor_rejects_mixed_configuration(self, tmp_path):
        with pytest.raises(ValueError, match="not both"):
            ParallelExecutor(jobs=1, options=RunOptions(jobs=2))

    @pytest.mark.parametrize("kernel", ["generic", "quantum"])
    def test_executor_runs_only_the_specialized_kernel(self, kernel):
        with pytest.raises(ValueError, match="Simulator.run"):
            ParallelExecutor(options=RunOptions(kernel=kernel))
        assert ParallelExecutor(options=RunOptions(kernel="specialized", jobs=1))

    def test_executor_options_store_url(self, tmp_path):
        executor = ParallelExecutor(
            options=RunOptions(jobs=1, store=f"json:{tmp_path / 'store'}")
        )
        assert executor.jobs == 1
        assert executor.store is not None
        assert executor.store.url.startswith("json:")


def _defined_callables():
    """``(qualified name, object)`` for every class, function and method that
    a module of ``repro`` defines (imported names excluded)."""
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        module = importlib.import_module(info.name)
        for value in vars(module).values():
            if getattr(value, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(value):
                yield f"{module.__name__}.{value.__qualname__}", value
            elif inspect.isclass(value):
                yield f"{module.__name__}.{value.__qualname__}", value
                for member in vars(value).values():
                    if isinstance(member, (staticmethod, classmethod)):
                        member = member.__func__
                    elif isinstance(member, property):
                        member = member.fget
                    if inspect.isfunction(member):
                        yield f"{module.__name__}.{member.__qualname__}", member


class TestAnnotations:
    def test_every_annotation_resolves(self):
        # Postponed annotations are strings until a tool evaluates them; a
        # name the module does not import fails only then.
        unresolved = []
        checked = 0
        for name, value in _defined_callables():
            checked += 1
            try:
                typing.get_type_hints(value)
            except NameError as error:
                unresolved.append(f"{name}: {error}")
        assert checked > 500
        assert unresolved == []
