"""Tests for instructions and the out-of-order pipeline."""

import pytest

from repro.cpu.instruction import Instruction, InstructionKind, compute, load, store
from repro.cpu.pipeline import OutOfOrderPipeline
from repro.sim.config import PipelineParameters


class TestInstruction:
    def test_factories(self):
        ld, s, c = load(0x100), store(0x200), compute()
        assert ld.is_load and ld.is_memory
        assert s.is_store and s.is_memory
        assert not c.is_memory

    def test_memory_ops_need_address(self):
        with pytest.raises(ValueError):
            Instruction(kind=InstructionKind.LOAD)
        with pytest.raises(ValueError):
            Instruction(kind=InstructionKind.STORE, address=0, size=0)

    def test_dependency_distances_must_be_positive(self):
        with pytest.raises(ValueError):
            compute(deps=(0,))
        with pytest.raises(ValueError):
            compute(deps=(-1,))

    def test_producers_resolved_from_seq(self):
        instruction = compute(deps=(1, 3))
        instruction.seq = 10
        assert instruction.producers() == (9, 7)

    def test_producers_before_trace_start_dropped(self):
        instruction = compute(deps=(5,))
        instruction.seq = 2
        assert instruction.producers() == ()

    def test_producers_requires_seq(self):
        with pytest.raises(ValueError):
            compute(deps=(1,)).producers()


class FakeInterface:
    """Minimal deterministic interface used to unit-test the pipeline.

    Loads complete ``latency`` cycles after submission; per-cycle load/store
    slots are configurable so resource-driven stalls can be tested.
    """

    def __init__(self, latency=2, load_slots=1, store_slots=1):
        self.latency = latency
        self.load_slots = load_slots
        self.store_slots = store_slots
        self.submitted_loads = []
        self.submitted_stores = []
        self.committed_stores = []
        self._pending = []
        self._loads_this_cycle = 0
        self._stores_this_cycle = 0
        self.finalized = False

    def begin_cycle(self, cycle):
        self._loads_this_cycle = 0
        self._stores_this_cycle = 0

    def can_accept_load(self):
        return True

    def can_accept_store(self):
        return True

    def reserve_load_slot(self):
        if self._loads_this_cycle < self.load_slots:
            self._loads_this_cycle += 1
            return True
        return False

    def reserve_store_slot(self):
        if self._stores_this_cycle < self.store_slots:
            self._stores_this_cycle += 1
            return True
        return False

    def submit_load(self, tag, address, size, cycle):
        self.submitted_loads.append((tag, cycle))
        self._pending.append((tag, cycle + self.latency))

    def submit_store(self, tag, address, size, cycle):
        self.submitted_stores.append((tag, cycle))

    def commit_store(self, tag, cycle):
        self.committed_stores.append(tag)

    def tick(self, cycle):
        ready = [(tag, when) for tag, when in self._pending if when <= cycle + self.latency]
        self._pending = []
        return ready

    def finalize(self, cycle):
        self.finalized = True

    def quiescent(self):
        # Never idle: the pipeline ticks this stub every cycle.
        return False


class TestPipeline:
    def _run(self, trace, **kwargs):
        interface = FakeInterface(**{k: v for k, v in kwargs.items() if k in ("latency", "load_slots", "store_slots")})
        params = kwargs.get("params", PipelineParameters())
        pipeline = OutOfOrderPipeline(interface, params=params)
        result = pipeline.run(trace)
        return result, interface

    def test_empty_trace(self):
        result, _ = self._run([])
        assert result.cycles == 0 and result.instructions == 0

    def test_all_instructions_commit(self):
        trace = [load(0x100), compute(deps=(1,)), store(0x200), compute()]
        result, interface = self._run(trace)
        assert result.instructions == 4
        assert result.loads == 1 and result.stores == 1 and result.computes == 2
        assert interface.finalized
        assert interface.committed_stores  # the store was reported at commit

    def test_ipc_bounded_by_commit_width(self):
        trace = [compute() for _ in range(600)]
        result, _ = self._run(trace)
        assert result.ipc <= 6.0 + 1e-9

    def test_dependent_compute_waits_for_load(self):
        fast = [load(0x100), compute()]
        slow = [load(0x100), compute(deps=(1,))]
        independent, _ = self._run(fast, latency=20)
        dependent, _ = self._run(slow, latency=20)
        assert dependent.cycles >= independent.cycles

    def test_load_latency_affects_execution_time(self):
        trace = []
        for i in range(50):
            trace.append(load(0x1000 + 64 * i))
            trace.append(compute(deps=(1,)))
        short, _ = self._run(trace, latency=2)
        long, _ = self._run(trace, latency=10)
        assert long.cycles > short.cycles

    def test_load_slots_limit_throughput(self):
        trace = [load(0x1000 + 64 * i) for i in range(60)]
        narrow, _ = self._run(trace, load_slots=1)
        wide, _ = self._run(trace, load_slots=2)
        assert wide.cycles < narrow.cycles

    def test_stores_issue_in_program_order(self):
        trace = [store(0x100), store(0x200), store(0x300)]
        _, interface = self._run(trace)
        tags = [tag for tag, _ in interface.submitted_stores]
        assert tags == sorted(tags)

    def test_rob_capacity_limits_window(self):
        # A tiny ROB forces near-serial execution of dependent loads.
        params = PipelineParameters(rob_entries=4)
        trace = [load(0x1000 + 64 * i) for i in range(40)]
        small, _ = self._run(trace, params=params)
        big, _ = self._run(trace)
        assert small.cycles >= big.cycles

    def test_deadlock_guard_raises(self):
        class StuckInterface(FakeInterface):
            def tick(self, cycle):
                return []  # never completes any load

        pipeline = OutOfOrderPipeline(StuckInterface(), max_cycles=200)
        with pytest.raises(RuntimeError):
            pipeline.run([load(0x100)])
