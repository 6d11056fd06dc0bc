"""Tests for the design-space exploration subsystem (``repro.dse``).

Covers the declarative search space, Pareto dominance on hand-built points,
the successive-halving promotion logic, objective computation, and the
engine's determinism contract: identical frontiers for any job count and
across a kill/resume of the result store.
"""

from __future__ import annotations

import json
import multiprocessing
import os

import pytest

from repro.campaign.executor import ParallelExecutor
from repro.campaign.store import ResultStore
from repro.dse.engine import Evaluator, extract_frontier, run_dse
from repro.dse.objectives import (
    OBJECTIVES,
    resolve_objectives,
)
from repro.dse.pareto import (
    ParetoPoint,
    dominance_ranks,
    dominates,
    frontier_and_ranks,
    pareto_frontier,
)
from repro.dse.space import (
    SPACE_PRESET_NAMES,
    Dimension,
    SearchSpace,
    choice,
    int_range,
    space_preset,
)
from repro.dse.strategies import (
    EvaluatedCandidate,
    RandomSearch,
    SuccessiveHalving,
    strategy_by_name,
)
from repro.energy.accounting import EnergyReport, StructureEnergy
from repro.sim.config import InterfaceKind
from repro.sim.simulator import SimulationResult

# Tiny space used by every integration test: 2x2 grid over two
# locality-extreme benchmarks at a short trace length.
TINY_DIMENSIONS = (
    choice("buses", "malec_options.result_buses", (2, 4)),
    choice("l1lat", "cache.l1_hit_latency", (1, 2)),
)


def tiny_space(**overrides) -> SearchSpace:
    defaults = dict(
        name="tiny",
        dimensions=TINY_DIMENSIONS,
        benchmarks=("gzip", "streamwrite"),
        instructions=400,
        warmup_fraction=0.25,
    )
    defaults.update(overrides)
    return SearchSpace(**defaults)


def frontier_fingerprint(result):
    """Exact (name, objective vector) pairs of a frontier, in order."""
    return [(candidate.name, candidate.values) for candidate in result.frontier]


# ----------------------------------------------------------------------
# Search space
# ----------------------------------------------------------------------
class TestSearchSpace:
    def test_size_is_the_grid_product(self):
        assert tiny_space().size == 4
        assert space_preset("malec-mini").size == 4 * 3 * 3 * 2

    def test_enumeration_is_row_major_and_deterministic(self):
        space = tiny_space()
        assignments = [space.assignment_at(i) for i in range(space.size)]
        assert assignments == [
            (("buses", 2), ("l1lat", 1)),
            (("buses", 2), ("l1lat", 2)),
            (("buses", 4), ("l1lat", 1)),
            (("buses", 4), ("l1lat", 2)),
        ]
        assert len({space.candidate(i).name for i in range(space.size)}) == space.size

    def test_out_of_range_index_rejected(self):
        with pytest.raises(IndexError):
            tiny_space().assignment_at(4)
        with pytest.raises(IndexError):
            tiny_space().assignment_at(-1)

    def test_candidate_applies_nested_overrides(self):
        space = tiny_space()
        candidate = space.candidate(2)  # buses=4, l1lat=1
        assert candidate.config.malec_options.result_buses == 4
        assert candidate.config.cache.l1_hit_latency == 1
        # Untouched knobs keep the base configuration's values.
        assert candidate.config.malec_options.merge_window == 3
        assert candidate.config.interface is InterfaceKind.MALEC
        assert candidate.name == "MALEC[buses=4,l1lat=1]"

    def test_interface_dimension_coerces_enum_values(self):
        space = tiny_space(
            dimensions=(choice("iface", "interface", ("Base1ldst", "MALEC")),)
        )
        assert space.candidate(0).config.interface is InterfaceKind.BASE_1LDST
        assert space.candidate(1).config.interface is InterfaceKind.MALEC

    def test_unknown_path_rejected_at_compile_time(self):
        space = tiny_space(dimensions=(choice("x", "no_such_knob", (1, 2)),))
        with pytest.raises(AttributeError):
            space.candidate(0)

    def test_validation(self):
        with pytest.raises(ValueError):
            tiny_space(dimensions=())
        with pytest.raises(ValueError):
            tiny_space(dimensions=TINY_DIMENSIONS + (choice("buses", "seed", (1,)),))
        with pytest.raises(ValueError):
            tiny_space(benchmarks=())
        with pytest.raises(KeyError):
            tiny_space(benchmarks=("gzip", "doom"))
        with pytest.raises(ValueError):
            tiny_space(instructions=0)
        with pytest.raises(ValueError):
            Dimension(name="empty", path="seed", values=())
        with pytest.raises(ValueError):
            Dimension(name="dup", path="seed", values=(1, 1))
        with pytest.raises(ValueError):
            int_range("bad", "seed", 1, 4, step=0)

    def test_int_range_covers_inclusive_stop(self):
        assert int_range("r", "seed", 1, 7, 2).values == (1, 3, 5, 7)

    def test_with_overrides(self):
        space = tiny_space().with_overrides(benchmarks=("djpeg",), instructions=999)
        assert space.benchmarks == ("djpeg",)
        assert space.instructions == 999
        assert tiny_space().with_overrides() == tiny_space()

    def test_presets_build_and_unknown_name_lists_choices(self):
        for name in SPACE_PRESET_NAMES:
            space = space_preset(name)
            assert space.size > 0
            assert space.candidate(space.size - 1).config is not None
        with pytest.raises(KeyError) as excinfo:
            space_preset("nope")
        for name in SPACE_PRESET_NAMES:
            assert name in str(excinfo.value)

    def test_mini_preset_includes_synthetic_extremes(self):
        space = space_preset("malec-mini")
        assert "ptrchase" in space.benchmarks
        assert "streamwrite" in space.benchmarks

    def test_describe_is_json_able(self):
        import json

        manifest = space_preset("malec-sensitivity").describe()
        assert json.loads(json.dumps(manifest))["size"] == manifest["size"]


# ----------------------------------------------------------------------
# Pareto dominance on hand-built points
# ----------------------------------------------------------------------
def P(label, *values):
    return ParetoPoint(label=label, values=tuple(values))


class TestPareto:
    def test_dominates_basics(self):
        assert dominates((1.0, 1.0), (2.0, 2.0))
        assert dominates((1.0, 2.0), (2.0, 2.0))
        assert not dominates((2.0, 2.0), (1.0, 2.0))
        # Incomparable points (trade-off) dominate neither way.
        assert not dominates((1.0, 3.0), (3.0, 1.0))
        assert not dominates((3.0, 1.0), (1.0, 3.0))
        # Equal vectors never dominate each other.
        assert not dominates((1.0, 1.0), (1.0, 1.0))

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            dominates((1.0,), (1.0, 2.0))

    def test_frontier_of_hand_built_points(self):
        fast_hungry = P("fast-hungry", 0.8, 1.3)
        slow_frugal = P("slow-frugal", 1.1, 0.7)
        balanced = P("balanced", 0.9, 0.9)
        dominated = P("dominated", 1.2, 1.4)  # beaten by everything
        frontier = pareto_frontier([dominated, fast_hungry, slow_frugal, balanced])
        assert [point.label for point in frontier] == [
            "fast-hungry",
            "balanced",
            "slow-frugal",
        ]

    def test_frontier_order_is_input_order_independent(self):
        points = [P("a", 1.0, 3.0), P("b", 2.0, 2.0), P("c", 3.0, 1.0)]
        assert pareto_frontier(points) == pareto_frontier(points[::-1])

    def test_duplicate_trade_off_points_all_survive(self):
        twin_a, twin_b = P("twin-a", 1.0, 1.0), P("twin-b", 1.0, 1.0)
        frontier = pareto_frontier([twin_a, twin_b, P("worse", 2.0, 2.0)])
        assert [point.label for point in frontier] == ["twin-a", "twin-b"]

    def test_single_objective_frontier_is_the_minimum(self):
        frontier = pareto_frontier([P("a", 3.0), P("b", 1.0), P("c", 2.0)])
        assert [point.label for point in frontier] == ["b"]

    def test_dominance_ranks_peel_fronts(self):
        points = [
            P("front0-a", 1.0, 4.0),
            P("front0-b", 4.0, 1.0),
            P("front1", 2.0, 4.5),  # only dominated by front0-a
            P("front2", 3.0, 5.0),  # dominated by front1 too
        ]
        assert dominance_ranks(points) == [0, 0, 1, 2]
        assert frontier_and_ranks(points)[1] == {
            "front0-a": 0,
            "front0-b": 0,
            "front1": 1,
            "front2": 2,
        }

    def test_empty_values_rejected(self):
        with pytest.raises(ValueError):
            ParetoPoint(label="void", values=())


# ----------------------------------------------------------------------
# Objectives
# ----------------------------------------------------------------------
def fake_result(name: str, cycles: int, energy_pj: float) -> SimulationResult:
    report = EnergyReport(
        cycles=cycles,
        structures={"l1.data": StructureEnergy(dynamic_pj=energy_pj, leakage_pj=0.0)},
    )
    return SimulationResult(
        config_name=name,
        cycles=cycles,
        instructions=cycles,
        loads=0,
        stores=0,
        energy=report,
        stats={},
    )


class TestObjectives:
    def test_resolve_preserves_order_and_rejects_unknown(self):
        keys = [obj.key for obj in resolve_objectives(("energy", "runtime"))]
        assert keys == ["energy", "runtime"]
        with pytest.raises(ValueError) as excinfo:
            resolve_objectives(("runtime", "bogus"))
        assert "bogus" in str(excinfo.value)
        with pytest.raises(ValueError):
            resolve_objectives(())
        with pytest.raises(ValueError):
            resolve_objectives(("runtime", "runtime"))

    def test_objective_values_against_hand_math(self):
        baseline = {
            "a": fake_result("base", cycles=1000, energy_pj=200.0),
            "b": fake_result("base", cycles=2000, energy_pj=100.0),
        }
        candidate = {
            "a": fake_result("cand", cycles=500, energy_pj=100.0),  # 0.5x / 0.5x
            "b": fake_result("cand", cycles=4000, energy_pj=200.0),  # 2.0x / 2.0x
        }
        # geomean(0.5, 2.0) == 1.0 for both axes; EDP = geomean(0.25, 4.0) == 1.0
        assert OBJECTIVES["runtime"].evaluate(candidate, baseline) == pytest.approx(1.0)
        assert OBJECTIVES["energy"].evaluate(candidate, baseline) == pytest.approx(1.0)
        assert OBJECTIVES["edp"].evaluate(candidate, baseline) == pytest.approx(1.0)

    def test_benchmark_mismatch_rejected(self):
        baseline = {"a": fake_result("base", 100, 10.0)}
        candidate = {"b": fake_result("cand", 100, 10.0)}
        with pytest.raises(ValueError):
            OBJECTIVES["runtime"].evaluate(candidate, baseline)


# ----------------------------------------------------------------------
# Strategies: schedules and promotion logic
# ----------------------------------------------------------------------
def fake_eval(index: int, score_values=(1.0, 1.0), instructions=400):
    return EvaluatedCandidate(
        index=index,
        name=f"cand{index}",
        assignment=(("dim", index),),
        instructions=instructions,
        objective_keys=("runtime", "energy"),
        values=tuple(score_values),
    )


class TestSuccessiveHalving:
    def test_rung_schedule_doubles_to_full_length(self):
        halving = SuccessiveHalving(eta=2, min_instructions=250)
        assert halving.rung_instructions(2000, 16) == [250, 500, 1000, 2000]
        assert halving.rung_instructions(600, 6) == [250, 300, 600]
        # A space shorter than the floor degenerates to one full-length rung.
        assert halving.rung_instructions(200, 8) == [200]
        assert halving.rung_instructions(4000, 1) == [4000]

    def test_eta_three_schedule(self):
        halving = SuccessiveHalving(eta=3, min_instructions=100)
        assert halving.rung_instructions(2700, 9) == [300, 900, 2700]

    def test_promote_keeps_best_scores_with_index_tie_break(self):
        rung = [
            fake_eval(0, (1.2, 1.0)),  # rank 1 (dominated by 1)
            fake_eval(1, (0.9, 1.0)),  # rank 0, score 0.9
            fake_eval(2, (1.0, 0.9)),  # rank 0, score 0.9 (index breaks tie)
            fake_eval(3, (2.0, 2.0)),  # rank 2 (dominated by everything)
        ]
        assert SuccessiveHalving.promote(rung, 2) == [1, 2]
        assert SuccessiveHalving.promote(rung, 3) == [0, 1, 2]
        with pytest.raises(ValueError):
            SuccessiveHalving.promote(rung, 0)

    def test_promote_prefers_non_dominated_extremes_over_scalar_score(self):
        # An extreme trade-off point (great runtime, poor energy) has a bad
        # scalar product but is non-dominated: it must outrank a dominated
        # candidate with a better product.
        rung = [
            fake_eval(0, (0.5, 3.0)),  # rank 0, score 1.5 (frontier extreme)
            fake_eval(1, (1.0, 1.0)),  # rank 0, score 1.0
            fake_eval(2, (1.1, 1.1)),  # rank 1, score 1.21 < 1.5 but dominated
        ]
        assert SuccessiveHalving.promote(rung, 2) == [0, 1]

    def test_run_never_culls_a_rung_frontier(self, tmp_path):
        # With eta=2 and four incomparable candidates the plain halving
        # quota would keep two; the front-preserving rule keeps all four
        # through every rung (verified on hand-built evaluations via
        # promote + the integration run's monotone counts).
        space = tiny_space()
        result = run_dse(
            space, strategy="halving", budget=4, jobs=1,
            store=ResultStore(tmp_path / "dse"),
        )
        full = [e for e in result.evaluations if e.instructions == space.instructions]
        # Every full-length survivor that is non-dominated appears in the
        # frontier; the frontier is never empty and never a strict subset
        # forced by the scalar score alone.
        assert result.frontier
        assert {c.name for c in result.frontier} <= {c.name for c in full}

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            SuccessiveHalving(eta=1)
        with pytest.raises(ValueError):
            SuccessiveHalving(min_instructions=0)

    def test_halving_promotes_through_rungs_to_full_length(self, tmp_path):
        space = tiny_space()
        result = run_dse(
            space,
            strategy="halving",
            budget=4,
            jobs=1,
            store=ResultStore(tmp_path / "dse"),
        )
        lengths = sorted({e.instructions for e in result.evaluations})
        assert lengths[-1] == space.instructions
        assert len(lengths) > 1  # at least one short rung ran
        # Survivor counts shrink rung over rung.
        by_length = {
            length: [e for e in result.evaluations if e.instructions == length]
            for length in lengths
        }
        counts = [len(by_length[length]) for length in lengths]
        assert counts == sorted(counts, reverse=True)
        assert all(e.instructions == space.instructions for e in result.pool)
        assert result.frontier  # non-empty frontier from the survivors


class TestStrategySelection:
    def test_strategy_by_name_rejects_unknown(self):
        with pytest.raises(ValueError) as excinfo:
            strategy_by_name("annealing")
        assert "grid" in str(excinfo.value)

    def test_random_sampling_is_seeded_and_distinct(self):
        space = tiny_space(
            dimensions=(choice("buses", "malec_options.result_buses", (1, 2, 3, 4, 5, 6)),)
        )
        first = RandomSearch(seed=7)._sample(space, 3)
        second = RandomSearch(seed=7)._sample(space, 3)
        assert first == second
        assert len(set(first)) == 3
        assert first == sorted(first)
        # The seed must actually steer the sample: among a handful of other
        # seeds at least one picks a different subset.
        assert any(
            RandomSearch(seed=seed)._sample(space, 3) != first for seed in range(8, 20)
        )
        # Budget >= size degenerates to the full grid.
        assert RandomSearch(seed=7)._sample(space, 99) == list(range(space.size))

    def test_grid_budget_subsamples_with_uniform_stride(self):
        # A capped grid must not evaluate the row-major prefix (that would
        # pin the leading dimension to its first value): the subsample
        # strides across the whole index range.
        result = run_dse(tiny_space(), strategy="grid", budget=2, jobs=1)
        assert [e.index for e in result.pool] == [0, 2]
        buses = {dict(e.assignment)["buses"] for e in result.pool}
        assert buses == {2, 4}  # both values of the leading dimension

    def test_grid_full_budget_is_the_whole_space(self):
        result = run_dse(tiny_space(), strategy="grid", jobs=1)
        assert [e.index for e in result.pool] == [0, 1, 2, 3]

    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError):
            run_dse(tiny_space(), strategy="grid", budget=0, jobs=1)


# ----------------------------------------------------------------------
# Engine determinism: the acceptance contract
# ----------------------------------------------------------------------
class TestEngineDeterminism:
    def test_identical_frontier_for_any_job_count(self, tmp_path):
        space = tiny_space()
        serial = run_dse(space, strategy="halving", budget=4, jobs=1,
                         store=ResultStore(tmp_path / "serial"))
        parallel = run_dse(space, strategy="halving", budget=4, jobs=4,
                           store=ResultStore(tmp_path / "parallel"))
        in_memory = run_dse(space, strategy="halving", budget=4, jobs=1)
        assert frontier_fingerprint(serial) == frontier_fingerprint(parallel)
        assert frontier_fingerprint(serial) == frontier_fingerprint(in_memory)
        assert serial.ranks == parallel.ranks

    def test_identical_frontier_after_kill_and_resume(self, tmp_path):
        space = tiny_space()
        store = ResultStore(tmp_path / "dse")
        first = run_dse(space, strategy="halving", budget=4, jobs=1, store=store)
        all_keys = sorted(store.keys())

        # Simulate a mid-sweep kill: drop every other persisted cell, then
        # re-run the identical exploration against the mutilated store.
        for key in all_keys[::2]:
            (store.cell_dir / f"{key}.json").unlink()
        resumed = run_dse(space, strategy="halving", budget=4, jobs=2, store=store)

        assert frontier_fingerprint(resumed) == frontier_fingerprint(first)
        assert resumed.ranks == first.ranks
        assert resumed.cells_resumed > 0 and resumed.cells_simulated > 0
        # Every evaluated cell is present exactly once, under its old key.
        assert sorted(store.keys()) == all_keys

    def test_store_dedupes_across_strategies(self, tmp_path):
        space = tiny_space()
        store = ResultStore(tmp_path / "dse")
        run_dse(space, strategy="grid", jobs=1, store=store)
        grid_cells = len(store)
        # The whole 4-point space was already swept at full length: a random
        # search with the same full-length evaluations resumes every cell.
        rerun = run_dse(space, strategy="random", budget=4, jobs=1, store=store)
        assert rerun.cells_simulated == 0
        assert rerun.cells_resumed > 0
        assert len(store) == grid_cells

    def test_frontier_points_are_never_dominated(self, tmp_path):
        result = run_dse(tiny_space(), strategy="grid", jobs=1)
        frontier_names = {candidate.name for candidate in result.frontier}
        for candidate in result.pool:
            assert (result.ranks[candidate.name] == 0) == (
                candidate.name in frontier_names
            )
        for fc in result.frontier:
            assert not any(
                dominates(other.values, fc.values) for other in result.pool
            )

    def test_extract_frontier_ignores_delivery_order(self):
        pool = [fake_eval(0, (1.0, 2.0)), fake_eval(1, (2.0, 1.0)), fake_eval(2, (3.0, 3.0))]
        forward = extract_frontier(pool)
        backward = extract_frontier(pool[::-1])
        assert [c.name for c in forward[0]] == [c.name for c in backward[0]]
        assert forward[1] == backward[1]

    def test_dse_manifest_written_alongside_store(self, tmp_path):
        import json

        store = ResultStore(tmp_path / "dse")
        result = run_dse(tiny_space(), strategy="grid", budget=2, jobs=1, store=store)
        manifest = json.loads((store.root / "dse.json").read_text())
        assert manifest["strategy"] == "grid"
        assert manifest["space"]["name"] == "tiny"
        assert len(manifest["frontier"]) == len(result.frontier)

    def test_manifest_survives_enum_valued_dimensions(self, tmp_path):
        # Enum values in an assignment (interface-kind dimensions built
        # from InterfaceKind members rather than strings) must not break
        # the dse.json serialization after all simulations completed.
        import json

        space = tiny_space(
            dimensions=(
                choice("iface", "interface", (InterfaceKind.BASE_1LDST, InterfaceKind.MALEC)),
            )
        )
        store = ResultStore(tmp_path / "dse")
        result = run_dse(space, strategy="grid", jobs=1, store=store)
        manifest = json.loads((store.root / "dse.json").read_text())
        assignments = [entry["assignment"]["iface"] for entry in manifest["frontier"]]
        assert set(assignments) <= {"Base1ldst", "MALEC"}
        assert result.frontier


# ----------------------------------------------------------------------
# Frontier reports
# ----------------------------------------------------------------------
class TestFrontierReports:
    def test_text_and_csv_share_rows(self):
        from repro.analysis.reporting import format_frontier, frontier_csv

        frontier = [fake_eval(1, (0.8, 0.9)), fake_eval(2, (1.1, 0.7))]
        ranks = {"cand1": 0, "cand2": 0}
        text = format_frontier(frontier, ranks)
        assert "runtime" in text and "energy" in text and "rank" in text
        csv_text = frontier_csv(frontier, ranks)
        lines = csv_text.splitlines()
        assert lines[0] == "dim,runtime,energy,instructions,rank"
        assert len(lines) == 3
        assert "0.8" in lines[1]

    def test_empty_frontier_renders_gracefully(self):
        from repro.analysis.reporting import format_frontier, frontier_csv

        assert format_frontier([]) == "frontier is empty"
        assert frontier_csv([]).splitlines() == ["empty"]

    def test_csv_floats_round_trip_exactly(self):
        from repro.analysis.reporting import frontier_csv

        value = 0.8029955969695887
        line = frontier_csv([fake_eval(0, (value, 1.0))]).splitlines()[1]
        assert float(line.split(",")[1]) == value


# ----------------------------------------------------------------------
# One pool per exploration
# ----------------------------------------------------------------------
#: the space of :func:`pooled_search`, as source for a child interpreter
POOLED_SPACE = "space_preset('malec-mini').with_overrides(instructions=1000)"


def pooled_search(jobs):
    """A three-rung halving search (250, 500 and 1,000 instructions)."""
    space = space_preset("malec-mini").with_overrides(instructions=1000)
    return run_dse(space, strategy="halving", budget=4, jobs=jobs)


def canonical(describe: dict) -> str:
    return json.dumps(describe, sort_keys=True)


class TestOnePoolPerExploration:
    """A pooled search runs every batch on one pool, joined before
    :func:`run_dse` returns; a pool broken in one batch is dropped, that
    batch finishes serially, and the next batch starts a fresh pool."""

    def test_every_rung_runs_on_the_same_two_workers(self, monkeypatch):
        batches = []
        run = ParallelExecutor.run

        def recorded_run(executor, spec):
            results = run(executor, spec)
            pids = {pid for _cell, pid, _start, _end in executor.cell_timings}
            batches.append((executor.used_pool, pids))
            return results

        monkeypatch.setattr(ParallelExecutor, "run", recorded_run)
        pooled = pooled_search(jobs=2)
        if not all(used for used, _pids in batches):
            pytest.skip("process pool unavailable on this platform")
        assert len(batches) == 3
        workers = set().union(*(pids for _used, pids in batches))
        assert len(workers) == 2 and os.getpid() not in workers
        assert multiprocessing.active_children() == []
        assert canonical(pooled.describe()) == canonical(pooled_search(jobs=1).describe())

    def test_a_worker_killed_in_the_second_batch(self, tmp_path, run_python):
        # Every worker SIGKILLs itself on its first cell of the second
        # batch, which the parent then finishes serially; the third batch
        # runs on a fresh pool, and the frontier equals a serial search's.
        if multiprocessing.get_all_start_methods()[0] != "fork":
            pytest.skip("the patched executor reaches workers only by fork")
        script = f"""
import json, multiprocessing, os, signal, sys
import repro.campaign.executor as executor_mod
from repro.campaign.executor import ParallelExecutor
from repro.dse import run_dse, space_preset
from repro.dse.engine import Evaluator

parent = os.getpid()
marker = sys.argv[1]
execute_cell = executor_mod._execute_cell
evaluate = Evaluator.evaluate
run = ParallelExecutor.run
batches = []

def die_in_the_second_batch(cell):
    if os.getpid() != parent:
        with open(marker) as handle:
            if handle.read() == "2":
                os.kill(os.getpid(), signal.SIGKILL)
    return execute_cell(cell)

def numbered_evaluate(evaluator, *args, **kwargs):
    with open(marker, "w") as handle:
        handle.write(str(evaluator.batches + 1))
    return evaluate(evaluator, *args, **kwargs)

def recorded_run(executor, spec):
    results = run(executor, spec)
    pids = sorted({{pid for _cell, pid, _start, _end in executor.cell_timings}})
    batches.append([executor.used_pool, pids])
    return results

executor_mod._execute_cell = die_in_the_second_batch
Evaluator.evaluate = numbered_evaluate
ParallelExecutor.run = recorded_run
result = run_dse({POOLED_SPACE}, strategy="halving", budget=4, jobs=2)
print(json.dumps({{
    "parent": parent,
    "batches": batches,
    "children": len(multiprocessing.active_children()),
    "describe": result.describe(),
}}))
"""
        child = run_python(script, str(tmp_path / "batch"))
        assert child.returncode == 0, child.stderr
        out = json.loads(child.stdout.splitlines()[-1])
        parent = out["parent"]
        (used1, first), (used2, second), (used3, third) = out["batches"]
        assert used1 and used2 and used3
        assert len(first) == 2 and parent not in first
        assert second == [parent]
        assert third and parent not in third and not set(third) & set(first)
        assert "process pool failed" in child.stderr
        assert out["children"] == 0
        assert canonical(out["describe"]) == canonical(pooled_search(jobs=1).describe())


# ----------------------------------------------------------------------
# Evaluator plumbing
# ----------------------------------------------------------------------
class TestEvaluator:
    def test_baseline_rides_along_and_objectives_are_normalized(self, tmp_path):
        space = tiny_space()
        evaluator = Evaluator(
            space, resolve_objectives(("runtime", "energy")), jobs=1
        )
        evaluated = evaluator.evaluate([0, 3], 300)
        assert [e.index for e in evaluated] == [0, 3]
        for e in evaluated:
            assert e.instructions == 300
            assert set(e.objectives) == {"runtime", "energy"}
            assert all(value > 0 for value in e.values)
        # One batch: 2 candidates + the baseline, over 2 benchmarks.
        assert evaluator.simulated == 6
        assert evaluator.batches == 1
