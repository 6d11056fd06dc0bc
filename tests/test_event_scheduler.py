"""The event wheel's deterministic drain order (FIFO within a cycle).

The pipeline's event-driven loop is pinned against the answers of the
retired cycle-driven reference loop by ``tests/golden/pipeline_identity.json``
(replayed in ``tests/test_golden.py``); the clock-jump property is checked in
``tests/test_fast_forward.py``.
"""

from __future__ import annotations

from repro.sim.events import EventWheel


class TestEventWheelTieBreaking:
    def test_fifo_order_within_cycle(self):
        wheel = EventWheel()
        wheel.schedule(5, "a")
        wheel.schedule(5, "b")
        wheel.schedule(5, "c")
        assert wheel.pop_due(5) == ["a", "b", "c"]

    def test_cycle_order_across_buckets(self):
        wheel = EventWheel()
        wheel.schedule(9, "late")
        wheel.schedule(3, "early")
        wheel.schedule(6, "mid")
        assert wheel.next_cycle() == 3
        assert wheel.pop_due(8) == ["early", "mid"]
        assert wheel.next_cycle() == 9
        assert len(wheel) == 1
        assert wheel.pop_due(100) == ["late"]
        assert not wheel

    def test_pop_due_ignores_future_events(self):
        wheel = EventWheel()
        wheel.schedule(10, "x")
        assert wheel.pop_due(9) == []
        assert len(wheel) == 1

    def test_pop_due_drains_earlier_cycles_first(self):
        wheel = EventWheel()
        wheel.schedule(2, 11)
        wheel.schedule(2, 12)
        wheel.schedule(1, 10)
        assert wheel.pop_due(2) == [10, 11, 12]

    def test_clear_drops_events(self):
        wheel = EventWheel()
        wheel.schedule(1, "x")
        wheel.clear()
        assert wheel.next_cycle() is None
        assert wheel.pop_due(10) == []
