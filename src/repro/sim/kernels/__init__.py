"""Specialized simulation kernels: per-configuration generated hot loops.

``compile_kernel(config)`` turns a :class:`~repro.sim.config.SimulationConfig`
into a :class:`KernelProgram` — an ``exec``-compiled module whose
``kernel_run(pipeline, seqs, total, capacity, trace_arrays)`` entry point is
the event-driven pipeline loop fused with the configuration's interface tick
and batched stat accounting, which flushes through the model's own counter
patterns (see :mod:`repro.sim.kernels.generator`).

Programs are cached per *content hash*: a digest of the configuration's
*shape* — what selects the code the generator emits (the interface kind,
MALEC's way determination, merge granularity and feedback, restricted
allocation, and the L1/L2 geometry the shifts and masks derive from) —
plus the generator version.  The numbers the code only uses as operands
(the pipeline widths, the LQ, SB and MB depths, the L1, L2 and DRAM
latencies, MALEC's result buses, merge window and Input Buffer capacity)
are read from the live objects once per run, and the name and seed are
left out, so configurations that differ only in those share one kernel:
Fig. 4's five configurations compile three, and ``malec-sensitivity``'s
217 compile three.  The campaign executor calls :func:`prewarm` with the
pending cells' configs in the parent, so forked workers inherit the
compiled programs; a worker forked earlier prewarms its chunk's
configurations itself.

``"specialized"`` is the default; ``RunOptions(kernel="generic")`` runs the
interpreted event loop of :class:`repro.cpu.pipeline.OutOfOrderPipeline`
instead.  That loop is the one oracle the kernels are held to: the
differential suite and the golden replays run every pinned case under both.

Both paths hold the same canonical state: one plain value per in-flight
access wherever a value suffices (a tag's issue cycle in the load queue,
``(tag, address, size)`` tuples in the baselines' load queues, MALEC's
Input Buffer and the store buffer, line addresses in the merge buffer and
MALEC's MBE backlog and MBE slot) and the same ``PendingWriteback`` records
elsewhere.  A kernel attached to a pipeline it was not generated for
raises ``RuntimeError`` naming the failed runtime guard; it never falls
back to the generic loop on its own.

Generated sources are registered with :mod:`linecache` under a synthetic
``<repro-kernel-...>`` filename, so tracebacks out of exec-compiled code show
real source lines (a cache reset unregisters the programs it drops);
``repro report --kernel-source CONFIG`` dumps the same text for offline
reading.
"""

from __future__ import annotations

import hashlib
import linecache
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Optional

from repro.sim.config import SimulationConfig
from repro.sim.kernels.generator import (
    GENERATOR_VERSION,
    KIND_CLASSES,
    build_spec,
    generate_source,
)

__all__ = [
    "GENERATOR_VERSION",
    "KERNELS",
    "KernelProgram",
    "compile_kernel",
    "content_hash",
    "kernel_source",
    "prewarm",
    "resolve_kernel",
]

#: recognised kernel selections
KERNELS = ("specialized", "generic")

_DEFAULT_KERNEL = "specialized"


def resolve_kernel(explicit: Optional[str] = None) -> str:
    """The effective kernel selection: ``explicit`` (a
    :class:`repro.api.RunOptions` field) or the default, ``"specialized"``."""
    choice = explicit if explicit is not None else _DEFAULT_KERNEL
    if choice not in KERNELS:
        raise ValueError(f"kernel {choice!r} not in {KERNELS}")
    return choice


@dataclass(frozen=True)
class KernelProgram:
    """A compiled specialized kernel plus its provenance.  Its source lines
    are ``linecache``'s entry for ``filename``."""

    kind: str
    content_hash: str
    filename: str
    entry: Callable


def content_hash(config: SimulationConfig) -> str:
    """Digest of the configuration's kernel shape (:func:`build_spec`).

    Two configs differing only in ``name``/``seed`` or in the numbers a
    kernel reads at run time hash identically, so they share one compiled
    kernel.  The generator version is part of the spec, so emitted-code
    changes roll the hash over.
    """
    spec = build_spec(config)
    return hashlib.sha256(repr(sorted(spec.items())).encode("utf-8")).hexdigest()


#: per-process program cache, keyed by content hash
_CACHE: Dict[str, KernelProgram] = {}

_CACHE_LIMIT = 512


def _bump(name: str, amount: float = 1.0) -> None:
    """Bump an obs counter iff metrics are on (lazy import: repro.obs pulls
    in the simulator, which imports this module — a top-level import would
    be circular)."""
    from repro.obs import metrics as obs_metrics

    if obs_metrics.enabled():
        obs_metrics.registry.counter(name).inc(amount)


def kernel_source(config: SimulationConfig) -> str:
    """The generated module text for ``config`` (for dumping/debugging)."""
    digest = content_hash(config)
    return generate_source(build_spec(config), digest)


def compile_kernel(config: SimulationConfig, _count: bool = True) -> KernelProgram:
    """Build (or fetch from the per-process cache) ``config``'s kernel.

    Bumps ``kernel.cache.hit``/``kernel.cache.miss`` when metrics are on;
    :func:`prewarm` passes ``_count=False`` so warm-up compiles stay out of
    the hit/miss ledger and the counters stay invariant across job counts
    (prewarmed pool worker vs cold serial path).
    """
    digest = content_hash(config)
    program = _CACHE.get(digest)
    if program is not None:
        if _count:
            _bump("kernel.cache.hit")
        return program
    if _count:
        _bump("kernel.cache.miss")
    if len(_CACHE) >= _CACHE_LIMIT:
        # Unregister the dropped programs' sources too, or a long-lived
        # process would keep every source it ever generated.
        for dropped in _CACHE.values():
            linecache.cache.pop(dropped.filename, None)
        _CACHE.clear()
    spec = build_spec(config)
    source = generate_source(spec, digest)
    filename = f"<repro-kernel-{spec['kind']}-{digest[:8]}>"
    # Register with linecache so tracebacks through exec-compiled code show
    # real source lines with real line numbers.
    linecache.cache[filename] = (
        len(source),
        None,
        source.splitlines(keepends=True),
        filename,
    )
    namespace: Dict[str, object] = {}
    exec(compile(source, filename, "exec"), namespace)
    program = KernelProgram(
        kind=spec["kind"],
        content_hash=digest,
        filename=filename,
        entry=namespace["kernel_run"],
    )
    _CACHE[digest] = program
    return program


def prewarm(configs: Iterable[SimulationConfig]) -> int:
    """Compile the kernels of ``configs`` (deduplicated by content hash);
    returns the count.

    The campaign executor calls it in the parent before a run's cells are
    dispatched, so workers forked after that inherit the compiled kernels;
    a pool worker calls it too on each chunk's configurations, which only
    hits the cache for an inherited kernel and compiles, once per worker,
    any kernel the parent compiled after the fork (or, spawned, any at
    all).
    """
    compiled = 0
    seen = set()
    for config in configs:
        digest = content_hash(config)
        if digest in seen:
            continue
        seen.add(digest)
        compile_kernel(config, _count=False)
        compiled += 1
    if compiled:
        # Counts distinct configs *processed*, not cache misses, so the value
        # is deterministic whether or not the cache was already warm.
        _bump("kernel.prewarm", compiled)
    return compiled
