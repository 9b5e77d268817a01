"""Phase 3 — the main regression graph (paper §3.2.3).

The RG performs A* regression from the goal set.  Each node carries a
proposition set and a totally ordered *plan tail* (the actions regressed
over so far, which form the suffix of any plan through this node).  On
node creation the tail is replayed inside the optimistic resource map —
contradictions, unsatisfiable conditions, or worst-case overdraws prune
the node immediately (early detection of quality-of-service violations).

A node is terminal when its propositions all hold in the initial state
and its tail replays successfully against the initial state's resource
map.  Because resource failures depend on the whole tail, nodes are not
reused; the RG is a tree (the paper's observation).  We do apply one safe
transposition prune: two nodes with the same proposition set and the same
*multiset* of tail actions are interchangeable, so the later/costlier one
is dropped.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from dataclasses import dataclass, field
from typing import Callable

from typing import TYPE_CHECKING

from ..compile import CompiledProblem, GroundAction, ReplayCounters, ReplayFailure
from ..obs import MetricsRegistry, SearchTrace
from .deadline import Deadline
from .errors import DeadlineExceeded, ResourceInfeasible, SearchBudgetExceeded

if TYPE_CHECKING:  # pragma: no cover - type-only; avoids a hard analysis dep
    from ..analysis.symmetry import PruneHints

__all__ = ["RGResult", "regression_search"]

_INF = math.inf

# Fixed histogram bounds for the RG work distributions (docs/OBSERVABILITY.md).
_TAIL_BOUNDS = (1, 2, 4, 8, 16, 32, 64)
_BRANCH_BOUNDS = (1, 2, 4, 8, 16, 32, 64, 128, 256)
_US_BOUNDS = (1, 2, 5, 10, 25, 50, 100, 250, 500, 1000)


@dataclass(slots=True)
class _Node:
    """One RG search node.

    ``tail_ids`` (the indices of the actions on the path back to the
    root) and ``depth`` (the tail length) are computed incrementally at
    construction — O(1) amortized bookkeeping per node instead of
    re-walking the parent chain for every candidate child.
    """

    props: frozenset[int]
    g: float
    action: GroundAction | None
    parent: "_Node | None"
    depth: int
    tail_ids: frozenset[int] = frozenset()

    def tail(self) -> list[GroundAction]:
        """Plan tail in execution order (this node's action first)."""
        out: list[GroundAction] = []
        node: _Node | None = self
        while node is not None and node.action is not None:
            out.append(node.action)
            node = node.parent
        return out


@dataclass
class RGResult:
    """Outcome of the RG search.

    ``incumbent`` marks an *anytime* result: the search was cut short (by
    deadline or node budget) and returned its best complete plan found so
    far instead of the proven optimum.  ``stop_reason`` says why the
    search ended: ``"optimal"``, ``"deadline"``, or ``"node_budget"``.
    """

    plan_actions: list[GroundAction]
    cost_lb: float
    nodes_created: int  # Table 2, column 8 (first number)
    nodes_left_in_queue: int  # Table 2, column 8 (second number)
    nodes_expanded: int
    replay: ReplayCounters = field(default_factory=ReplayCounters)
    incumbent: bool = False
    stop_reason: str = "optimal"
    symmetry_pruned: int = 0
    """Children skipped by the verified symmetry sibling prune."""


def regression_search(
    problem: CompiledProblem,
    heuristic: Callable[[frozenset[int]], float],
    usable_actions: tuple[int, ...],
    node_budget: int = 500_000,
    branch_all_props: bool = True,
    prop_rank: Callable[[int], float] | None = None,
    trace: SearchTrace | None = None,
    metrics: MetricsRegistry | None = None,
    deadline: Deadline | None = None,
    allow_incumbent: bool = False,
    probe_budget: int = 4096,
    symmetry: "PruneHints | None" = None,
) -> RGResult:
    """A* regression with plan-tail replay.

    Parameters
    ----------
    heuristic:
        Maps a proposition set to an admissible cost-to-initial-state
        bound (SLRG query or PLRG hmax, per configuration).
    usable_actions:
        Indices of actions that survived PLRG relevance/reachability.
    branch_all_props:
        When true (the paper's rule, and the planner default), children
        regress over achievers of *any* open proposition.  When false,
        only the hardest open proposition is regressed — cheaper, but a
        multi-output action covering several open subgoals may be missed,
        losing optimality (and, in corner cases, feasibility).
    prop_rank:
        Ranking used to pick the hardest proposition (defaults to the
        heuristic of singleton sets; the planner passes PLRG costs).
    trace / metrics:
        Optional observability channels (see :mod:`repro.obs`): a bounded
        event trace, and a registry receiving the RG work distributions
        (branching factors, replay tail lengths, f-values, per-action
        replay microseconds) plus per-reason prune counters.  Both default
        to off; the hot loop then runs exactly as before.
    deadline:
        Optional wall-clock deadline, polled once per expansion with a
        strided clock read (docs/ROBUSTNESS.md).
    allow_incumbent:
        Anytime mode.  Every complete node created during the search (its
        propositions all hold initially and its tail replayed cleanly) is
        remembered as the *incumbent*; when the deadline or node budget
        trips, the best incumbent is returned — flagged via
        ``RGResult.incumbent`` — instead of raising.  With no incumbent
        yet, exhaustion still raises.  Because an accurate heuristic makes
        A* create its first terminal node only near the optimum, anytime
        mode first runs a bounded *greedy probe* (best-first on ``h``
        alone, up to ``probe_budget`` nodes) to establish an initial
        incumbent quickly; the probe's plan is feasible (replay-checked)
        but usually suboptimal.
    probe_budget:
        Node cap for the greedy incumbent probe (anytime mode only;
        ``0`` disables the probe).
    symmetry:
        Optional verified prune hints from the static analysis
        (:func:`repro.analysis.compute_symmetry`).  When a candidate
        action is the verified swap image of a cheaper-indexed sibling
        candidate under a node transposition ``rep ~ other``, and neither
        swapped node is mentioned by the current node's propositions or
        plan tail, the candidate is skipped: the sibling's subtree
        explores the swap image of everything under it at identical cost,
        so optimal plan cost is preserved (reason ``"symmetry"``).

    Raises
    ------
    ResourceInfeasible
        When the search space empties without a terminal node — the
        greedy failure mode of Scenario 1.
    SearchBudgetExceeded
        When ``node_budget`` nodes have been created without a solution
        (and no incumbent was available to return).  Its ``elapsed_s``
        is 0.0 here; :meth:`Planner.solve <repro.planner.Planner.solve>`
        fills in the ``rg`` span's duration.
    DeadlineExceeded
        When ``deadline`` expired without a solution (and no incumbent
        was available to return); ``elapsed_s`` is the expired
        deadline's :meth:`~repro.planner.Deadline.elapsed_s`.
    """
    initial = problem.initial_prop_ids
    actions = problem.actions
    usable = set(usable_actions)
    achievers: dict[int, list[int]] = {
        pid: [a for a in acts if a in usable] for pid, acts in problem.achievers.items()
    }
    if prop_rank is None:
        prop_rank = lambda pid: heuristic(frozenset((pid,)))  # noqa: E731

    root = _Node(props=frozenset(problem.goal_prop_ids), g=0.0, action=None, parent=None, depth=0)
    counters = ReplayCounters()

    # Metric instruments are resolved once, outside the loop; when metrics
    # are off the per-iteration cost is a single None check per site.
    if metrics is not None:
        branch_hist = metrics.histogram("rg.branching_factor", _BRANCH_BOUNDS)
        tail_hist = metrics.histogram("rg.replay.tail_length", _TAIL_BOUNDS)
        f_hist = metrics.histogram("rg.f_value")
        us_hist = metrics.histogram("rg.replay.us_per_action", _US_BOUNDS)
        prune_counters = {
            reason: metrics.counter(f"rg.prune.{reason}")
            for reason in ("replay", "transposition", "heuristic", "symmetry")
        }

    counter = itertools.count()
    h0 = heuristic(root.props)
    if h0 == _INF:
        raise ResourceInfeasible("goal set has no logical support")
    # Ties on f are broken toward smaller h (deeper progress), which walks
    # a uniform-cost plateau depth-first instead of flooding it.
    heap: list[tuple[float, float, int, _Node]] = [(h0, h0, next(counter), root)]
    nodes_created = 1
    nodes_expanded = 0
    # Transposition pruning: (props, tail action multiset) -> best g.
    seen: dict[tuple[frozenset[int], frozenset[int]], float] = {}
    # Anytime state: cheapest complete node created so far.  A node whose
    # propositions all hold initially is a valid plan the moment it is
    # created (its replay base *is* the initial map), so it can stand in
    # for the optimum when the search is cut short.
    incumbent: _Node | None = None
    symmetry_pruned = 0

    def _weighted_probe(cap: int, weight: float = 2.0) -> tuple[_Node | None, int]:
        """Weighted A* (``f' = g + weight·h``): find *some* complete plan fast.

        Returns ``(terminal_node_or_None, nodes_created)``.  Children are
        generated and replay-validated exactly like the main loop, so a
        returned node is a feasible plan; its cost is within ``weight``
        times the optimum.  Pure h-greedy descent drowns in this space —
        feasible complete tails are rare off the cost-ordered frontier —
        but inflating h by 2 keeps enough g-ordering to reach a terminal
        in a few thousand nodes on the Fig. 10 instances.
        """
        pheap: list[tuple[tuple[float, float], int, _Node]] = [
            ((weight * h0, h0), next(counter), root)
        ]
        pseen: dict[tuple[frozenset[int], frozenset[int]], float] = {}
        created = 0
        while pheap:
            if deadline is not None and deadline.poll():
                return None, created
            _pf, _pt, pnode = heapq.heappop(pheap)
            p_open = pnode.props - initial
            if not p_open:
                return pnode, created
            cands: set[int] = set()
            if branch_all_props:
                for pid in p_open:
                    cands.update(achievers.get(pid, ()))
            else:
                cands.update(achievers.get(max(p_open, key=prop_rank), ()))
            for a_idx in cands:
                if a_idx in pnode.tail_ids:
                    continue
                action = actions[a_idx]
                new_props = frozenset((pnode.props - action.add_props) | action.pre_props)
                child_tail_ids = pnode.tail_ids | {a_idx}
                key = (new_props, child_tail_ids)
                ng = pnode.g + action.cost_lb
                prev = pseen.get(key)
                if prev is not None and prev <= ng:
                    continue
                child = _Node(
                    props=new_props,
                    g=ng,
                    action=action,
                    parent=pnode,
                    depth=pnode.depth + 1,
                    tail_ids=child_tail_ids,
                )
                rmap = problem.initial_map()
                counters.replays += 1
                try:
                    step: _Node | None = child
                    while step is not None and step.action is not None:
                        step.action.replay(rmap, counters)
                        step = step.parent
                except ReplayFailure:
                    continue
                if not (new_props - initial):
                    return child, created + 1
                nh = heuristic(new_props)
                if nh == _INF:
                    continue
                pseen[key] = ng
                created += 1
                if created > cap:
                    return None, created
                heapq.heappush(pheap, ((ng + weight * nh, nh), next(counter), child))
        return None, created

    if allow_incumbent and probe_budget > 0:
        incumbent, probe_created = _weighted_probe(probe_budget)
        nodes_created += probe_created
        if metrics is not None and incumbent is not None:
            metrics.inc("rg.incumbent.improved")

    def _interrupted(reason: str) -> RGResult:
        """Return the incumbent on early stop, or raise the structured error."""
        if allow_incumbent and incumbent is not None:
            if trace is not None:
                trace.terminal(incumbent.g, incumbent.depth)
            if metrics is not None:
                metrics.inc("rg.incumbent.returned")
            return RGResult(
                plan_actions=incumbent.tail(),
                cost_lb=incumbent.g,
                nodes_created=nodes_created,
                nodes_left_in_queue=len(heap),
                nodes_expanded=nodes_expanded,
                replay=counters,
                incumbent=True,
                stop_reason=reason,
                symmetry_pruned=symmetry_pruned,
            )
        if reason == "deadline":
            raise DeadlineExceeded(
                phase="rg",
                time_limit_s=deadline.time_limit_s,
                nodes_expanded=nodes_expanded,
                nodes_created=nodes_created,
                elapsed_s=deadline.elapsed_s(),
            )
        # elapsed_s stays 0.0: Planner.solve fills in the rg span's time.
        raise SearchBudgetExceeded(
            phase="rg",
            nodes_expanded=nodes_expanded,
            nodes_created=nodes_created,
            budget=node_budget,
        )

    while heap:
        if deadline is not None and deadline.poll():
            return _interrupted("deadline")
        f, _h, _tie, node = heapq.heappop(heap)
        open_props = node.props - initial

        if not open_props:
            # Logically satisfied; final validation replays against the
            # exact initial map (already done at creation — the node's
            # replay base *is* the initial map — so this is terminal).
            if trace is not None:
                trace.terminal(node.g, node.depth)
            return RGResult(
                plan_actions=node.tail(),
                cost_lb=node.g,
                nodes_created=nodes_created,
                nodes_left_in_queue=len(heap),
                nodes_expanded=nodes_expanded,
                replay=counters,
                symmetry_pruned=symmetry_pruned,
            )

        nodes_expanded += 1
        if trace is not None:
            trace.expanded(len(open_props), f, node.depth)

        # Child actions must achieve at least one open proposition (the
        # paper's rule).  By default we fix the hardest open proposition
        # and branch over its achievers only; branch_all_props restores
        # the literal any-proposition branching.
        candidate_actions: set[int] = set()
        if branch_all_props:
            for pid in open_props:
                candidate_actions.update(achievers.get(pid, ()))
        else:
            target = max(open_props, key=prop_rank)
            candidate_actions.update(achievers.get(target, ()))
        if metrics is not None:
            branch_hist.observe(len(candidate_actions))

        tail_ids = node.tail_ids
        mentioned: set[str] | None = None  # nodes touched by props/tail, lazy
        for a_idx in candidate_actions:
            if a_idx in tail_ids:
                continue  # add-only logic never needs a repeated action
            if symmetry is not None:
                edge = symmetry.partner.get(a_idx)
                if (
                    edge is not None
                    and edge[0] in candidate_actions
                    and edge[0] not in tail_ids
                ):
                    if mentioned is None:
                        prop_node = symmetry.prop_node
                        mentioned = {
                            prop_node[pid] for pid in node.props if pid in prop_node
                        }
                        for t_idx in tail_ids:
                            mentioned.update(symmetry.action_nodes.get(t_idx, ()))
                    _a1, rep, other = edge
                    if rep not in mentioned and other not in mentioned:
                        # This child is the rep~other swap image of the
                        # sibling through edge[0]; that sibling's subtree
                        # covers the image of this one at identical cost.
                        symmetry_pruned += 1
                        if trace is not None:
                            trace.pruned(
                                actions[a_idx].name,
                                "symmetry",
                                node.depth + 1,
                                f"swap image under {rep}~{other}",
                            )
                        if metrics is not None:
                            prune_counters["symmetry"].inc()
                        continue
            action = actions[a_idx]
            new_props = frozenset((node.props - action.add_props) | action.pre_props)
            ng = node.g + action.cost_lb
            child_tail_ids = tail_ids | {a_idx}
            key = (new_props, child_tail_ids)
            prev = seen.get(key)
            if prev is not None and prev <= ng:
                if trace is not None:
                    trace.pruned(action.name, "transposition", node.depth + 1, "duplicate tail set")
                if metrics is not None:
                    prune_counters["transposition"].inc()
                continue

            child = _Node(
                props=new_props,
                g=ng,
                action=action,
                parent=node,
                depth=node.depth + 1,
                tail_ids=child_tail_ids,
            )

            # Replay the tail (child's action first, walking up the parent
            # chain) in the optimistic map seeded from the initial state.
            rmap = problem.initial_map()
            counters.replays += 1
            t_replay = time.perf_counter() if metrics is not None else 0.0
            try:
                step: _Node | None = child
                while step is not None and step.action is not None:
                    step.action.replay(rmap, counters)
                    step = step.parent
            except ReplayFailure as exc:
                if trace is not None:
                    trace.pruned(action.name, "replay", child.depth, exc.reason)
                if metrics is not None:
                    prune_counters["replay"].inc()
                continue
            if metrics is not None:
                tail_hist.observe(child.depth)
                us_hist.observe((time.perf_counter() - t_replay) * 1e6 / child.depth)

            nh = heuristic(new_props)
            if nh == _INF:
                if trace is not None:
                    trace.pruned(action.name, "heuristic", child.depth, "infinite cost-to-go")
                if metrics is not None:
                    prune_counters["heuristic"].inc()
                continue
            if allow_incumbent and not (new_props - initial):
                # Complete plan: remember the cheapest one seen so far.
                if incumbent is None or ng < incumbent.g:
                    incumbent = child
                    if metrics is not None:
                        metrics.inc("rg.incumbent.improved")
            seen[key] = ng
            nodes_created += 1
            if nodes_created > node_budget:
                return _interrupted("node_budget")
            if trace is not None:
                trace.created(action.name, ng + nh, child.depth)
            if metrics is not None:
                f_hist.observe(ng + nh)
            heapq.heappush(heap, (ng + nh, nh, next(counter), child))

    raise ResourceInfeasible(
        "no deployment plan survives resource replay (the goal is logically "
        "reachable but every candidate plan violates resource constraints)"
    )
