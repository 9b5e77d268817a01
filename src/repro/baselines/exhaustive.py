"""Exhaustive optimal search — a ground-truth oracle for small problems.

Branch-and-bound depth-first search over forward-executable action
sequences of a compiled problem, minimizing *exact* execution cost.  A
child that the delete-free relaxation says cannot reach the goal within
the depth bound is cut before it is executed.  Used by the test suite
to certify that the leveled planner's plans are optimal (within the
level approximation) on instances small enough to enumerate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

from ..compile import CompiledProblem, GroundAction
from ..planner.errors import ExecutionError, PlanningError
from ..planner.executor import execute_plan

__all__ = ["ExhaustiveResult", "exhaustive_optimal"]


@dataclass
class ExhaustiveResult:
    actions: list[GroundAction]
    exact_cost: float
    nodes_visited: int


def exhaustive_optimal(
    problem: CompiledProblem,
    max_depth: int = 10,
    node_limit: int = 2_000_000,
) -> ExhaustiveResult | None:
    """Cheapest exactly-executable plan of length ≤ ``max_depth``.

    Returns ``None`` when no plan exists within the depth bound.

    Raises
    ------
    PlanningError
        When ``node_limit`` states are visited — the instance is too big
        for exhaustive search.
    """
    goal = problem.goal_prop_ids
    actions = problem.actions
    min_steps = cache(lambda achieved: _relaxed_steps(problem, achieved))

    best_cost = math.inf
    best_plan: list[GroundAction] | None = None
    visited = 0
    # memo: (achieved propositions, exact resource-state signature) ->
    # (cheapest cost, shallowest depth) reaching it.  The signature
    # matters: two level variants of the same action yield identical
    # proposition sets but different concrete values, with different
    # futures.  So does the depth: a state first reached deep had its
    # subtree cut short by ``max_depth``.
    memo: dict[tuple[frozenset[int], tuple], tuple[float, int]] = {}

    def state_signature(values: dict[str, float]) -> tuple:
        return tuple(sorted((k, round(v, 6)) for k, v in values.items()))

    def dfs(
        achieved: frozenset[int],
        prefix: list[GroundAction],
        cost: float,
        values: dict[str, float],
    ) -> None:
        nonlocal best_cost, best_plan, visited
        visited += 1
        if visited > node_limit:
            raise PlanningError(f"exhaustive search exceeded {node_limit} states")
        if cost >= best_cost:
            return
        if goal <= achieved:
            best_cost = cost
            best_plan = list(prefix)
            return
        key = (achieved, state_signature(values))
        seen = memo.get(key)
        if seen is not None and seen[0] <= cost and seen[1] <= len(prefix):
            return
        memo[key] = (cost, len(prefix))

        used = {a.index for a in prefix}
        for action in actions:
            if action.index in used or not action.pre_props <= achieved:
                continue
            reached = achieved | action.add_props
            if len(prefix) + 1 + min_steps(reached) > max_depth:
                continue
            candidate = prefix + [action]
            try:
                report = execute_plan(problem, candidate)
            except ExecutionError:
                continue
            # Recompute exact cost from the report (costs are bandwidth
            # dependent, so the prefix cost cannot simply be accumulated).
            dfs(reached, candidate, report.total_cost, report.final_values)

    dfs(frozenset(problem.initial_prop_ids), [], 0.0, execute_plan(problem, []).final_values)
    if best_plan is None:
        return None
    return ExhaustiveResult(best_plan, best_cost, visited)


def _relaxed_steps(problem: CompiledProblem, achieved: frozenset[int]) -> float:
    """Layers of the delete-free relaxation (propositions are never lost,
    values and resources are ignored) until the goal holds: a lower bound
    on the length of every plan from ``achieved``, ``math.inf`` when the
    goal is unreachable."""
    reached, layers = set(achieved), 0
    while not problem.goal_prop_ids <= reached:
        new = set().union(*(a.add_props for a in problem.actions if a.pre_props <= reached))
        if new <= reached:
            return math.inf
        reached |= new
        layers += 1
    return layers
