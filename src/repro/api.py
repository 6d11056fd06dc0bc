"""The programmatic run-configuration surface: :class:`RunOptions`.

One frozen dataclass is the single way to configure
:meth:`repro.sim.simulator.Simulator.run`,
:func:`repro.sim.simulator.run_configuration` and
:class:`repro.campaign.executor.ParallelExecutor`::

    from repro.api import RunOptions
    from repro.campaign import ParallelExecutor

    options = RunOptions(jobs=4, store="sqlite:results.db")
    ParallelExecutor(options=options).run(spec)

Every run takes the same path — columnar trace, event scheduler, then the
kernel — so the only simulation knob is the kernel: ``"specialized"``
(default) or the ``"generic"`` interpreted loop the kernels are held to,
which only ``Simulator.run`` and ``run_configuration`` take; campaigns run
the specialized kernel.  The environment is never consulted.

Every field defaults to ``None`` meaning "the built-in default"
(``specialized`` kernel, no collector, one campaign worker per CPU core,
no persistence), so ``RunOptions()`` is always a valid, fully-specified
run.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Optional

__all__ = ["RunOptions"]


@dataclass(frozen=True)
class RunOptions:
    """Everything that configures a simulation run, in one object.

    ``None`` fields mean "use the built-in default"; :meth:`resolved_kernel`
    applies the default and validates the name, raising ``ValueError`` on
    a bad one.
    """

    #: hot-loop kernel: ``"specialized"`` (default) or ``"generic"``
    kernel: Optional[str] = None
    #: optional :class:`repro.obs.collector.RunCollector` (forces the
    #: generic kernel; observation is strictly additive)
    collector: Any = None
    #: worker processes for campaign execution (``None`` = one per CPU core)
    jobs: Optional[int] = None
    #: result store: a store URL (``json:dir`` / ``sqlite:db``), a bare
    #: directory path, a live ``ResultStore``, or ``None`` (no persistence)
    store: Any = None

    # ------------------------------------------------------------------
    def resolved_kernel(self) -> str:
        """The effective kernel name (validated)."""
        from repro.sim.kernels import resolve_kernel

        return resolve_kernel(self.kernel)

    def open_store(self):
        """The live :class:`~repro.campaign.store.ResultStore` this run
        persists to, or ``None``.  Accepts every ``store=`` spelling."""
        from repro.campaign.store import open_store

        return open_store(self.store)

    def with_overrides(self, **fields: Any) -> "RunOptions":
        """A copy with the given fields replaced."""
        return replace(self, **fields)
