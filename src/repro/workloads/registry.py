"""Process-local registry of ingested traces, and unified workload resolution.

Campaign specs and DSE spaces name their workloads with plain strings.  For
the paper's benchmarks those strings resolve through the synthetic profile
registry (:func:`~repro.workloads.suites.benchmark_profile`); this module
adds a second namespace for *ingested* traces — real application traces
loaded from disk (:mod:`repro.workloads.ingest`) and registered under a
handle name — and the resolution helpers the campaign layer uses to treat
both uniformly:

* :func:`register_trace` installs the
  :class:`~repro.workloads.columnar.ColumnarTrace` of a trace under a name
  (default ``<name>@<hash10>``) and returns its :class:`TraceHandle`, which
  carries the content fingerprint
  (:meth:`~repro.workloads.columnar.ColumnarTrace.fingerprint`) that
  campaign cell keys embed — results are keyed by *what the trace
  contains*, never by the file path it came from, so resumed campaigns
  recognise their cells as long as the same trace bytes are registered
  again;
* :func:`validate_workload` / :func:`workload_suite` /
  :func:`workload_trace_hash` answer "does this name exist", "which suite
  does it report under" and "which content hash pins it" for either
  namespace.

The registry is process-local on purpose: pool workers never consult it —
the campaign executor ships them the serialized trace bytes directly, keyed
by the same ``(workload, instructions, seed)`` tuples the parent resolved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.obs.logs import get_logger
from repro.workloads.columnar import ColumnarTrace
from repro.workloads.suites import benchmark_profile

logger = get_logger(__name__)

#: suite reported for ingested traces that do not carry one of their own
INGESTED_SUITE = "ingested"


@dataclass(frozen=True)
class TraceHandle:
    """Identity of one registered trace: name, content hash, suite, length."""

    name: str
    fingerprint: str
    suite: str
    length: int


_TRACES: Dict[str, ColumnarTrace] = {}
_HANDLES: Dict[str, TraceHandle] = {}


def register_trace(trace, name: Optional[str] = None) -> TraceHandle:
    """Install ``trace.columnar()`` in the registry; returns its :class:`TraceHandle`.

    ``name`` defaults to ``<trace.name>@<fingerprint[:10]>`` so two distinct
    ingests never collide silently.  Registering the same content under the
    same name is an idempotent no-op; the same name with *different* content,
    or a name shadowing a synthetic benchmark profile, raises ``ValueError``.
    """
    trace = trace.columnar()
    fingerprint = trace.fingerprint()
    if name is None:
        name = f"{trace.name or 'trace'}@{fingerprint[:10]}"
    existing = _HANDLES.get(name)
    if existing is not None:
        if existing.fingerprint == fingerprint:
            return existing
        raise ValueError(
            f"trace name {name!r} is already registered with different content "
            f"(registered {existing.fingerprint[:10]}, new {fingerprint[:10]})"
        )
    try:
        benchmark_profile(name)
    except KeyError:
        pass
    else:
        raise ValueError(
            f"{name!r} names a synthetic benchmark profile; register the "
            "trace under a different name"
        )
    handle = TraceHandle(
        name=name,
        fingerprint=fingerprint,
        suite=trace.suite or INGESTED_SUITE,
        length=len(trace),
    )
    _TRACES[name] = trace
    _HANDLES[name] = handle
    logger.info(
        "registered trace %s (%d instructions, suite %s, %s)",
        name,
        handle.length,
        handle.suite,
        fingerprint[:10],
    )
    return handle


def registered_trace(name: str) -> Optional[ColumnarTrace]:
    """The registered trace called ``name``, or ``None``."""
    return _TRACES.get(name)


def registered_handle(name: str) -> Optional[TraceHandle]:
    """The :class:`TraceHandle` of ``name``, or ``None``."""
    return _HANDLES.get(name)


def registered_names() -> Tuple[str, ...]:
    """Names of every registered trace, in registration order."""
    return tuple(_HANDLES)


def clear_registry() -> None:
    """Drop every registered trace (test isolation)."""
    _TRACES.clear()
    _HANDLES.clear()


# ----------------------------------------------------------------------
# Unified workload resolution (synthetic profiles + ingested traces)
# ----------------------------------------------------------------------
def validate_workload(name: str) -> None:
    """Raise ``KeyError`` unless ``name`` is a profile or a registered trace."""
    if registered_handle(name) is not None:
        return
    try:
        benchmark_profile(name)
    except KeyError:
        raise KeyError(
            f"unknown workload {name!r}: neither a benchmark profile nor a "
            "registered trace (load one with `repro ... --trace-file FILE`)"
        ) from None


def workload_suite(name: str) -> str:
    """The suite ``name`` reports under, for either namespace."""
    handle = registered_handle(name)
    if handle is not None:
        return handle.suite
    return benchmark_profile(name).suite


def workload_trace_hash(name: str) -> str:
    """The content hash pinning ``name`` (empty for synthetic profiles)."""
    handle = registered_handle(name)
    return handle.fingerprint if handle is not None else ""
