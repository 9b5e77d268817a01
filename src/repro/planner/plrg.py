"""Phase 1 — the per-proposition logical regression graph (paper §3.2.1).

The PLRG estimates the minimum logical cost of achieving each proposition
from the initial state, ignoring resource restrictions and most action
interactions (level pruning has already happened at compile time).  Its
estimates are admissible lower bounds and seed the later phases.

Construction is split into the two passes the paper describes:

* a **backward relevance pass** from the goal identifies the proposition
  and action nodes that can appear in any plan (the PLRG's node sets —
  Table 2 reports their counts);
* a **forward cost pass** (a Dijkstra-flavoured fixpoint over the relevant
  actions) computes each proposition's cost as
  ``min over achievers of [action cost + max over preconditions]`` —
  exactly the paper's "cost of a proposition node is the minimum of the
  costs of supporting actions, and the cost of an action node the maximum
  cost of its preconditions".
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from ..compile import CompiledProblem
from .deadline import Deadline
from .errors import DeadlineExceeded, Unsolvable

__all__ = ["PLRG", "build_plrg"]

_INF = math.inf


@dataclass
class PLRG:
    """Result of phase 1."""

    prop_cost: dict[int, float]  # proposition id -> admissible cost bound
    relevant_props: frozenset[int]
    relevant_actions: frozenset[int]  # action indices
    usable_actions: tuple[int, ...]  # relevant AND forward-reachable
    prop_nodes: int  # graph-size statistics (Table 2, column 6)
    action_nodes: int

    def cost(self, pid: int) -> float:
        return self.prop_cost.get(pid, _INF)

    def set_cost(self, props) -> float:
        """hmax over a set of propositions (admissible)."""
        best = 0.0
        for pid in props:
            c = self.prop_cost.get(pid, _INF)
            if c > best:
                best = c
                if c == _INF:
                    break
        return best


def build_plrg(
    problem: CompiledProblem,
    deadline: Deadline | None = None,
    exclude_actions: frozenset[int] = frozenset(),
) -> PLRG:
    """Build the PLRG; raises :class:`Unsolvable` if the goal is logically
    unreachable from the initial state.  (:meth:`Planner.solve
    <repro.planner.Planner.solve>` times the call as the ``plrg`` span.)
    With a ``deadline``, both passes poll it and raise :class:`DeadlineExceeded`
    (phase ``"plrg"``) on expiry — the PLRG has no meaningful partial
    result, so there is no anytime mode here.  ``exclude_actions`` removes
    statically refuted actions (:mod:`repro.analysis`) before relevance:
    they can never fire, so no plan — and no admissible bound — loses
    support."""
    relevant_props, relevant_actions = _relevance(problem, deadline, exclude_actions)
    prop_cost = _forward_costs(problem, relevant_actions, deadline)

    unreachable = [pid for pid in problem.goal_prop_ids if prop_cost.get(pid, _INF) == _INF]
    if unreachable:
        names = ", ".join(problem.prop_str(p) for p in unreachable)
        raise Unsolvable(f"goal propositions logically unreachable: {names}")

    usable = tuple(
        a_idx
        for a_idx in sorted(relevant_actions)
        if all(prop_cost.get(p, _INF) < _INF for p in problem.actions[a_idx].pre_props)
    )
    return PLRG(
        prop_cost=prop_cost,
        relevant_props=frozenset(relevant_props),
        relevant_actions=frozenset(relevant_actions),
        usable_actions=usable,
        prop_nodes=len(relevant_props),
        action_nodes=len(relevant_actions),
    )


def _check(deadline: Deadline | None, expanded: int) -> None:
    if deadline is not None and deadline.poll():
        raise DeadlineExceeded(
            phase="plrg",
            time_limit_s=deadline.time_limit_s,
            nodes_expanded=expanded,
            elapsed_s=deadline.elapsed_s(),
        )


def _relevance(
    problem: CompiledProblem,
    deadline: Deadline | None = None,
    exclude_actions: frozenset[int] = frozenset(),
) -> tuple[set[int], set[int]]:
    """Backward pass: props/actions reachable (in regression) from the goal."""
    relevant_props: set[int] = set()
    relevant_actions: set[int] = set()
    stack = list(problem.goal_prop_ids)
    while stack:
        _check(deadline, len(relevant_props))
        pid = stack.pop()
        if pid in relevant_props:
            continue
        relevant_props.add(pid)
        if pid in problem.initial_prop_ids:
            continue
        for a_idx in problem.achievers.get(pid, ()):
            if a_idx in relevant_actions or a_idx in exclude_actions:
                continue
            relevant_actions.add(a_idx)
            for pre in problem.actions[a_idx].pre_props:
                if pre not in relevant_props:
                    stack.append(pre)
    return relevant_props, relevant_actions


def _forward_costs(
    problem: CompiledProblem,
    relevant_actions: set[int],
    deadline: Deadline | None = None,
) -> dict[int, float]:
    """Dijkstra over propositions with hmax action aggregation."""
    prop_cost: dict[int, float] = {pid: 0.0 for pid in problem.initial_prop_ids}

    # For each action, count of preconditions not yet priced; actions with
    # all preconditions priced become applicable at cost lb + max(pre).
    waiting: dict[int, int] = {}
    watchers: dict[int, list[int]] = {}
    for a_idx in relevant_actions:
        action = problem.actions[a_idx]
        missing = 0
        for pre in action.pre_props:
            if pre not in prop_cost:
                missing += 1
                watchers.setdefault(pre, []).append(a_idx)
        waiting[a_idx] = missing

    heap: list[tuple[float, int]] = [(0.0, pid) for pid in problem.initial_prop_ids]
    heapq.heapify(heap)
    settled: set[int] = set()

    def fire(a_idx: int) -> None:
        action = problem.actions[a_idx]
        base = 0.0
        for pre in action.pre_props:
            c = prop_cost[pre]
            if c > base:
                base = c
        total = base + action.cost_lb
        for add in action.add_props:
            old = prop_cost.get(add, _INF)
            if total < old:
                prop_cost[add] = total
                heapq.heappush(heap, (total, add))

    for a_idx in relevant_actions:
        if waiting[a_idx] == 0:
            fire(a_idx)

    while heap:
        _check(deadline, len(settled))
        cost, pid = heapq.heappop(heap)
        if pid in settled or cost > prop_cost.get(pid, _INF):
            continue
        settled.add(pid)
        for a_idx in watchers.get(pid, ()):
            waiting[a_idx] -= 1
            if waiting[a_idx] == 0:
                fire(a_idx)

    return prop_cost
