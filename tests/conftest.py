"""Shared fixtures for the MALEC reproduction test suite."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.memory.address import AddressLayout, DEFAULT_LAYOUT
from repro.stats import StatCounters
from repro.tlb.tlb import TLBHierarchy
from repro.workloads.suites import benchmark_profile
from repro.workloads.synthetic import generate_trace


def pytest_addoption(parser):
    parser.addoption(
        "--shape-fuzz",
        type=int,
        default=32,
        metavar="N",
        help="number of seeded configuration shapes the kernel differential "
        "runs (tests/test_kernel_differential.py::TestShapeFuzz; default 32)",
    )
    parser.addoption(
        "--record-fuzz",
        type=int,
        default=200,
        metavar="N",
        help="number of random JSON values each record-codec property test "
        "encodes (tests/test_record_codec.py; default 200)",
    )


@pytest.fixture
def run_python():
    """``run(script, *args)``: run ``script`` in a fresh interpreter that
    imports this ``repro``, with ``args`` as its ``sys.argv[1:]``.

    A hang fails the test through ``subprocess.TimeoutExpired``.
    """
    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))

    def run(script: str, *args: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-c", script, *args],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
            timeout=120,
        )

    return run


@pytest.fixture
def record_fuzz(request) -> int:
    """``--record-fuzz N``: random values per record-codec property test."""
    return request.config.getoption("record_fuzz")


@pytest.fixture
def layout() -> AddressLayout:
    """The paper's default address/cache geometry (Table II)."""
    return DEFAULT_LAYOUT


@pytest.fixture
def stats() -> StatCounters:
    """A fresh, empty statistics collection."""
    return StatCounters()


@pytest.fixture
def translation(stats) -> TLBHierarchy:
    """A default uTLB/TLB hierarchy sharing the ``stats`` fixture."""
    return TLBHierarchy(stats=stats)


@pytest.fixture(scope="session")
def small_trace():
    """A short, deterministic synthetic trace used by integration tests."""
    return generate_trace(benchmark_profile("gzip"), instructions=1500)


@pytest.fixture(scope="session")
def media_trace():
    """A short media-like trace (high page/line locality)."""
    return generate_trace(benchmark_profile("djpeg"), instructions=1500)


def make_address(layout: AddressLayout, page: int, line: int, offset: int = 0) -> int:
    """Helper used across tests to build addresses field-by-field."""
    return layout.compose_line(page, line, offset)
