"""Idle fast-forward: the event loop jumps the clock over stalled cycles.

The pipeline jumps the clock across cycles in which nothing can retire,
issue, tick, commit or fetch.  These tests build workloads with long idle
gaps — pointer-chasing loads missing all the way to DRAM — and assert the
jump is actually exercised on every interface model, and never taken by an
interface that never reports quiescence.  That the jumps leave every result
unchanged is pinned by ``tests/golden/pipeline_identity.json`` (the
``idle-gap``, ``busy`` and ``burst`` cases, computed cycle by cycle).
"""

from __future__ import annotations

import pytest

from repro.cpu.instruction import compute, load, store
from repro.cpu.pipeline import OutOfOrderPipeline
from repro.sim.config import SimulationConfig
from repro.sim.simulator import Simulator
from repro.workloads.trace import MemoryTrace

CONFIGURATIONS = [
    SimulationConfig.base_1ldst(),
    SimulationConfig.base_2ld1st(),
    SimulationConfig.malec(),
]


def pointer_chase_trace(chain_length: int = 60) -> MemoryTrace:
    """Serially dependent loads, each to a fresh page: every load misses to
    DRAM and stalls the machine for the full miss latency — long idle gaps."""
    instructions = []
    for index in range(chain_length):
        # 1 MByte stride: distinct pages, distinct L1/L2 sets.
        instructions.append(load(0x10000 + index * (1 << 20), deps=(1,) if index else ()))
        instructions.append(compute(deps=(1,)))
    instructions.append(store(0x500000, deps=(1,)))
    return MemoryTrace(name="pointer-chase", instructions=instructions)


class TestFastForward:
    @pytest.mark.parametrize("config", CONFIGURATIONS, ids=lambda c: c.name)
    def test_idle_gap_trace_jumps_the_clock(self, config):
        simulator = Simulator(config)
        pipeline = OutOfOrderPipeline(
            simulator.interface,
            params=simulator.config.pipeline,
            stats=simulator.stats,
        )
        result = pipeline.run(pointer_chase_trace())
        # The jump must skip a meaningful share of the DRAM-bound stalls.
        assert pipeline.fast_forwarded_cycles > result.cycles // 2

    def test_fast_forward_requires_quiescent_protocol(self):
        """An interface whose quiescent() is always False is ticked every
        cycle and never lets the clock jump."""

        class MinimalInterface:
            def __init__(self):
                self.ticks = []

            def begin_cycle(self, cycle):
                pass

            def can_accept_load(self):
                return True

            def can_accept_store(self):
                return True

            def reserve_load_slot(self):
                return True

            def reserve_store_slot(self):
                return True

            def submit_load(self, tag, address, size, cycle):
                self._pending = (tag, cycle + 100)

            def submit_store(self, tag, address, size, cycle):
                pass

            def commit_store(self, tag, cycle):
                pass

            def tick(self, cycle):
                self.ticks.append(cycle)
                pending = getattr(self, "_pending", None)
                if pending is not None:
                    self._pending = None
                    return [pending]
                return []

            def finalize(self, cycle):
                pass

            def quiescent(self):
                return False

        interface = MinimalInterface()
        pipeline = OutOfOrderPipeline(interface)
        result = pipeline.run([load(0x100)])
        assert result.cycles > 100  # waited for the slow completion...
        assert pipeline.fast_forwarded_cycles == 0  # ...cycle by cycle
        assert interface.ticks == list(range(result.cycles))
