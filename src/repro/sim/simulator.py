"""Top-level simulator: configuration + trace -> performance and energy.

:class:`Simulator` instantiates the memory hierarchy, the translation path,
the selected L1 interface model and the out-of-order pipeline from a
:class:`~repro.sim.config.SimulationConfig`, runs a workload trace through
them and collects a :class:`SimulationResult` carrying the execution time,
the raw event counters and the energy report — everything the benchmark
harness needs to regenerate Fig. 4a/4b and the Sec. VI analyses.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional

from repro.api import RunOptions
from repro.cpu.instruction import Instruction
from repro.cpu.pipeline import OutOfOrderPipeline
from repro.energy.accounting import EnergyAccountant, EnergyReport
from repro.energy.energy_model import InterfaceEnergyModel
from repro.interfaces.base import BaseL1Interface
from repro.interfaces.base_1ldst import BaselineSingleInterface
from repro.interfaces.base_2ld1st import BaselineDualLoadInterface
from repro.interfaces.malec import MalecInterface
from repro.memory.hierarchy import MemoryHierarchy
from repro.sim.config import InterfaceKind, SimulationConfig
from repro.sim.kernels import compile_kernel, resolve_kernel
from repro.stats import StatCounters
from repro.tlb.tlb import TLBHierarchy


#: per-process memo of energy models, keyed by the (frozen, hashable)
#: simulation configuration.  A model is a pure function of the config —
#: array specs, event map and the memoised access/leakage energies — so one
#: instance can be shared by every Simulator of a sweep cell shape.
_ENERGY_MODEL_CACHE: Dict[SimulationConfig, InterfaceEnergyModel] = {}

_ENERGY_MODEL_CACHE_LIMIT = 512


def _energy_model_for(config: SimulationConfig) -> InterfaceEnergyModel:
    """Build (or fetch) the energy model of ``config``."""
    model = _ENERGY_MODEL_CACHE.get(config)
    if model is None:
        if len(_ENERGY_MODEL_CACHE) >= _ENERGY_MODEL_CACHE_LIMIT:
            _ENERGY_MODEL_CACHE.clear()
        model = _ENERGY_MODEL_CACHE[config] = InterfaceEnergyModel(
            config.energy_model_config()
        )
    return model


def _guarded_ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator`` with the zero-denominator convention.

    Every derived-rate property of :class:`SimulationResult` funnels through
    this helper so the "0.0 when the denominator never counted" behaviour is
    applied consistently (an empty trace, a configuration without way
    determination, a run with no loads, ...).
    """
    return numerator / denominator if denominator else 0.0


@dataclass
class SimulationResult:
    """Outcome of one (configuration, trace) simulation."""

    config_name: str
    cycles: int
    instructions: int
    loads: int
    stores: int
    energy: EnergyReport
    stats: Dict[str, float] = field(default_factory=dict)

    @property
    def ipc(self) -> float:
        """Committed instructions per cycle."""
        return _guarded_ratio(self.instructions, self.cycles)

    @property
    def l1_load_miss_rate(self) -> float:
        """Fraction of L1 load accesses that missed."""
        return _guarded_ratio(
            self.stats.get("l1.load_miss", 0.0), self.stats.get("l1.load", 0.0)
        )

    @property
    def way_coverage(self) -> float:
        """Fraction of MALEC L1 accesses with a known way (0 for baselines)."""
        return _guarded_ratio(
            self.stats.get("malec.way_known", 0.0),
            self.stats.get("malec.way_lookup", 0.0),
        )

    @property
    def merged_load_fraction(self) -> float:
        """Fraction of loads that shared another load's bank access."""
        merged = self.stats.get("interface.loads_merged", 0.0)
        accesses = self.stats.get("interface.load_accesses", 0.0)
        return _guarded_ratio(merged, merged + accesses)

    def normalized_time(self, baseline: "SimulationResult") -> float:
        """Execution time relative to ``baseline`` (Fig. 4a's y-axis)."""
        if baseline.cycles == 0:
            raise ValueError("baseline has zero cycles")
        return self.cycles / baseline.cycles

    def normalized_energy(self, baseline: "SimulationResult") -> Dict[str, float]:
        """Dynamic/leakage/total energy relative to ``baseline`` (Fig. 4b)."""
        return self.energy.normalized_to(baseline.energy)


class Simulator:
    """Builds and runs one configuration."""

    def __init__(self, config: SimulationConfig) -> None:
        self.config = config
        self.stats = StatCounters()
        self.hierarchy = MemoryHierarchy(
            layout=config.cache.layout,
            l1_hit_latency=config.cache.l1_hit_latency,
            l2_latency=config.cache.l2_latency,
            dram_latency=config.cache.dram_latency,
            restrict_way_allocation=config.restrict_way_allocation,
            stats=self.stats,
        )
        self.translation = TLBHierarchy(
            layout=config.cache.layout,
            utlb_entries=config.tlb.utlb_entries,
            tlb_entries=config.tlb.tlb_entries,
            walk_latency=config.tlb.walk_latency,
            stats=self.stats,
            seed=config.seed,
        )
        self.interface = self._build_interface()
        # Energy models are immutable once built; memoised per configuration
        # so a sweep builds each cell shape's model once, not once per cell.
        self.energy_model = _energy_model_for(config)
        self.accountant = EnergyAccountant(self.energy_model)
        #: whether the last run()'s measured pipeline executed a specialized kernel
        self.kernel_used = False

    # ------------------------------------------------------------------
    def _build_interface(self) -> BaseL1Interface:
        config = self.config
        common = dict(
            stats=self.stats,
            lq_entries=config.lq_entries,
            sb_entries=config.sb_entries,
            mb_entries=config.mb_entries,
            layout=config.cache.layout,
        )
        if config.interface is InterfaceKind.BASE_1LDST:
            return BaselineSingleInterface(self.hierarchy, self.translation, **common)
        if config.interface is InterfaceKind.BASE_2LD1ST:
            return BaselineDualLoadInterface(self.hierarchy, self.translation, **common)
        malec = config.malec_options
        return MalecInterface(
            self.hierarchy,
            self.translation,
            way_determination=malec.way_determination,
            wdu_entries=malec.wdu_entries,
            enable_feedback_update=malec.enable_feedback_update,
            merge_granularity=malec.merge_granularity,
            result_buses=malec.result_buses,
            input_buffer_capacity=malec.input_buffer_capacity,
            merge_window=malec.merge_window,
            **common,
        )

    # ------------------------------------------------------------------
    def _kernel_entry(self, kernel: Optional[str], collector):
        """The compiled ``kernel_run`` of this configuration, or ``None`` when
        the generic loop runs: on request, or with a collector attached
        (attribution instruments the generic loop's stages, which the
        specialized kernels do not have; results are bit-identical)."""
        if resolve_kernel(kernel) != "specialized" or collector is not None:
            return None
        return compile_kernel(self.config).entry

    def run(
        self,
        trace: Iterable[Instruction],
        warmup_fraction: float = 0.0,
        options: Optional[RunOptions] = None,
    ) -> SimulationResult:
        """Execute ``trace`` and return performance plus energy results.

        ``trace`` is any trace input: a
        :class:`~repro.workloads.columnar.ColumnarTrace`, a
        :class:`~repro.workloads.trace.MemoryTrace` or a plain iterable of
        Instructions, adapted once to its columnar view
        (:func:`~repro.workloads.columnar.as_columnar`).  Its address
        column is range-checked against the layout in one pass, and the
        pipeline receives zero-copy ``run_slice`` windows for the warm-up
        and measured portions.

        ``warmup_fraction`` runs the first part of the trace only to warm the
        caches, TLBs and way tables; its cycles and events are discarded
        before the measured portion starts.  The paper measures warmed-up
        Simpoint phases, so the experiment harness uses a non-zero warm-up to
        keep compulsory misses from dominating the (much shorter) synthetic
        traces.

        ``options`` (a :class:`repro.api.RunOptions`; ``None`` means the
        defaults) selects the kernel and an optional collector:

        * ``kernel="specialized"`` (the default) runs a per-configuration
          generated kernel — the event-driven loop fused with the interface
          tick and batched stat accounting (see :mod:`repro.sim.kernels`);
          ``"generic"`` runs the interpreted loop, the oracle the kernels
          are held to.  Results are bit-identical either way.
        * ``collector`` attaches a :class:`repro.obs.collector.RunCollector`
          to the *measured* pipeline (warm-up cycles are discarded from
          results, so they are excluded from attribution too).  Observation
          is strictly additive; collector runs take the generic loop.
        """
        if not 0.0 <= warmup_fraction < 1.0:
            raise ValueError("warmup_fraction must lie in [0, 1)")
        # Lazy import: the workloads package pulls in repro.obs, which
        # imports this module.
        from repro.workloads.columnar import as_columnar

        if options is None:
            options = RunOptions()
        collector = options.collector
        entry = self._kernel_entry(options.kernel, collector)
        self.kernel_used = False
        view = as_columnar(trace)
        view.precompute_decompositions(self.config.cache.layout)
        total = len(view)
        warmup_count = int(total * warmup_fraction)
        params = self.config.pipeline
        # The loop allocates short-lived objects at a rate that keeps the
        # cyclic collector busy for nothing (the simulator builds no
        # reference cycles); pausing it for the run is a pure wall-time win.
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            if warmup_count:
                warmup_pipeline = OutOfOrderPipeline(
                    self.interface, params=params, stats=self.stats, kernel=entry
                )
                warmup_pipeline.run(view.run_slice(0, warmup_count))
                self.stats.clear()
            pipeline = OutOfOrderPipeline(
                self.interface,
                params=params,
                stats=self.stats,
                collector=collector,
                kernel=entry,
            )
            outcome = pipeline.run(view.run_slice(warmup_count, total))
            self.kernel_used = pipeline.kernel_used
        finally:
            if gc_was_enabled:
                gc.enable()
        energy = self.accountant.report(self.stats, outcome.cycles)
        return SimulationResult(
            config_name=self.config.name,
            cycles=outcome.cycles,
            instructions=outcome.instructions,
            loads=outcome.loads,
            stores=outcome.stores,
            energy=energy,
            stats=self.stats.as_dict(),
        )


def run_configuration(
    config: SimulationConfig,
    trace: Iterable[Instruction],
    warmup_fraction: float = 0.0,
    options: Optional[RunOptions] = None,
) -> SimulationResult:
    """One-call helper: build a :class:`Simulator` for ``config`` and run ``trace``."""
    return Simulator(config).run(
        trace, warmup_fraction=warmup_fraction, options=options
    )
