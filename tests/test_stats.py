"""Tests for the shared statistics counters."""

from repro.stats import StatCounters


class TestBasics:
    def test_counters_start_at_zero(self):
        stats = StatCounters()
        assert stats.get("anything") == 0.0
        assert stats["anything"] == 0.0
        assert "anything" not in stats

    def test_add_and_get(self):
        stats = StatCounters()
        stats.add("l1.hit")
        stats.add("l1.hit", 2)
        assert stats.get("l1.hit") == 3
        assert "l1.hit" in stats

    def test_set_overwrites(self):
        stats = StatCounters()
        stats.add("x", 5)
        stats.set("x", 2)
        assert stats["x"] == 2

    def test_len_and_iter(self):
        stats = StatCounters()
        stats.add("a")
        stats.add("b")
        assert len(stats) == 2
        assert sorted(stats) == ["a", "b"]

    def test_adding_zero_makes_a_counter_live(self):
        stats = StatCounters()
        stats.add("a", 0)
        stats.add_many((("b", 3),), 0)
        assert "a" in stats and "b" in stats
        assert len(stats) == 2
        assert stats.as_dict() == {"a": 0.0, "b": 0.0}

    def test_values_read_back_as_floats_and_set_keeps_its_value(self):
        stats = StatCounters()
        stats.add("added", 2)
        stats.add_many((("patterned", 1),), 3)
        stats.set("set", 7)
        assert type(stats["added"]) is float and stats["added"] == 2.0
        assert type(stats["patterned"]) is float and stats["patterned"] == 3.0
        assert type(stats["set"]) is int and stats["set"] == 7


class TestPatterns:
    def test_add_many_scales_each_pair_by_the_amount(self):
        stats = StatCounters()
        pattern = (("l1.ctrl", 1), ("l1.tag_read", 4))
        stats.add_many(pattern)
        stats.add_many(pattern, 5)
        assert stats.as_dict() == {"l1.ctrl": 6.0, "l1.tag_read": 24.0}


class TestAggregation:
    def test_ratio(self):
        stats = StatCounters()
        stats.add("hits", 3)
        stats.add("lookups", 4)
        assert stats.ratio("hits", "lookups") == 0.75

    def test_ratio_zero_denominator(self):
        stats = StatCounters()
        stats.add("hits", 3)
        assert stats.ratio("hits", "lookups") == 0.0

    def test_total(self):
        stats = StatCounters()
        stats.add("a", 1)
        stats.add("b", 2)
        assert stats.total("a", "b", "missing") == 3

    def test_merge(self):
        a = StatCounters()
        b = StatCounters()
        a.add("x", 1)
        b.add("x", 2)
        b.add("y", 5)
        a.merge(b)
        assert a["x"] == 3
        assert a["y"] == 5

    def test_clear(self):
        stats = StatCounters()
        stats.add("x")
        stats.set("y", 3)
        stats.clear()
        assert len(stats) == 0
        assert "x" not in stats and stats.get("y", -1) == -1
        assert stats.as_dict() == {}


class TestPresentation:
    def test_as_dict_is_sorted_by_name(self):
        stats = StatCounters()
        for name in ("tlb.miss", "l1.hit", "arb.cycles", "l1.ctrl"):
            stats.add(name)
        assert list(stats.as_dict()) == ["arb.cycles", "l1.ctrl", "l1.hit", "tlb.miss"]

    def test_as_dict_snapshot_is_independent(self):
        stats = StatCounters()
        stats.add("x", 1)
        snapshot = stats.as_dict()
        stats.add("x", 1)
        assert snapshot["x"] == 1
        assert stats["x"] == 2

    def test_summary_contains_counters(self):
        stats = StatCounters()
        stats.add("l1.hit", 10)
        stats.add("tlb.miss", 1)
        text = stats.summary()
        assert "l1.hit" in text and "tlb.miss" in text

    def test_summary_prefix_filter(self):
        stats = StatCounters()
        stats.add("l1.hit", 10)
        stats.add("tlb.miss", 1)
        text = stats.summary(prefix="l1.")
        assert "l1.hit" in text and "tlb.miss" not in text
