"""Pareto dominance over objective vectors (all objectives minimized).

The paper's whole argument is a point on the energy/performance plane:
MALEC trades a small slowdown for a large L1 energy saving.  The design-
space engine generalizes that to full frontiers — given candidates with
objective vectors (normalized runtime, normalized energy, ...), extract
the non-dominated set and rank everything else by dominance depth.

All comparisons are exact float comparisons on deterministic inputs, so a
frontier is a pure function of the evaluated results: identical across job
counts and across store resumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Tuple


@dataclass(frozen=True)
class ParetoPoint:
    """One candidate on the objective plane.

    ``values`` holds the objective vector (one entry per objective, all
    minimized); ``payload`` can carry the evaluated candidate and is
    excluded from equality so two points compare by position and label
    alone.
    """

    label: str
    values: Tuple[float, ...]
    payload: Any = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError("a Pareto point needs at least one objective value")


def dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """True if vector ``a`` Pareto-dominates ``b`` (minimization).

    ``a`` dominates ``b`` when it is no worse in every objective and
    strictly better in at least one.  Equal vectors do not dominate each
    other, so duplicated trade-off points all stay on the frontier.
    """
    if len(a) != len(b):
        raise ValueError("objective vectors must have equal length")
    strictly_better = False
    for left, right in zip(a, b):
        if left > right:
            return False
        if left < right:
            strictly_better = True
    return strictly_better


def _frontier_order(point: ParetoPoint):
    """Deterministic presentation order of a frontier: values, then label."""
    return (point.values, point.label)


def pareto_frontier(points: Sequence[ParetoPoint]) -> List[ParetoPoint]:
    """The non-dominated subset of ``points``, in deterministic order.

    The frontier is sorted by objective vector (then label for exact
    ties), independent of input order, so two runs that evaluated the
    same candidates print the same frontier byte for byte.
    """
    frontier = [
        point
        for point in points
        if not any(
            dominates(other.values, point.values) for other in points if other is not point
        )
    ]
    return sorted(frontier, key=_frontier_order)


def dominance_ranks(points: Sequence[ParetoPoint]) -> List[int]:
    """Non-dominated sorting rank of every point, aligned with the input.

    Rank 0 is the Pareto frontier; rank ``k`` is the frontier of what
    remains after peeling ranks ``0 .. k-1`` (NSGA-style fronts).
    """
    ranks = [-1] * len(points)
    remaining = list(range(len(points)))
    rank = 0
    while remaining:
        front = [
            i
            for i in remaining
            if not any(
                dominates(points[j].values, points[i].values)
                for j in remaining
                if j != i
            )
        ]
        if not front:  # pragma: no cover - only reachable with NaN objectives
            raise ValueError("dominance ranking failed to make progress")
        for i in front:
            ranks[i] = rank
        front_set = set(front)
        remaining = [i for i in remaining if i not in front_set]
        rank += 1
    return ranks


def frontier_and_ranks(
    points: Sequence[ParetoPoint],
) -> Tuple[List[ParetoPoint], Dict[str, int]]:
    """Frontier plus per-label dominance ranks from one ranking pass.

    The frontier is exactly rank 0, presented in :func:`pareto_frontier`'s
    deterministic (values, label) order — one dominance computation serves
    both views, and the ordering contract lives in one place.
    """
    ranks = dominance_ranks(points)
    frontier = sorted(
        (point for point, rank in zip(points, ranks) if rank == 0),
        key=_frontier_order,
    )
    return frontier, {point.label: rank for point, rank in zip(points, ranks)}
