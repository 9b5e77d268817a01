"""Phase 3 — the main regression graph (paper §3.2.3).

The RG performs A* regression from the goal set.  Each node carries a
proposition set and a totally ordered *plan tail* (the actions regressed
over so far, which form the suffix of any plan through this node).  The
tail is replayed inside the optimistic resource map —
contradictions, unsatisfiable conditions, or worst-case overdraws prune
the node (early detection of quality-of-service violations).  The paper
replays on node creation; here the replay waits until A* pops the node,
because most queued nodes are never expanded.  A node that fails is
dropped at its pop, before any expansion, so the expanded tree is the
one creation-time replay gives.  Complete nodes (every proposition holds
initially) are still replayed when they are made: a complete node is a
plan the moment it exists.

A node is terminal when its propositions all hold in the initial state
and its tail replays successfully against the initial state's resource
map.  Because resource failures depend on the whole tail, nodes are not
reused; the RG is a tree (the paper's observation).  We do apply one safe
transposition prune: two nodes with the same proposition set and the same
*multiset* of tail actions are interchangeable, so the later/costlier one
is dropped — once the earlier one's tail is known to replay cleanly.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from bisect import bisect
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterator

from ..compile import CompiledProblem, GroundAction, ReplayCounters, ReplayFailure
from ..obs import MetricsRegistry, SearchTrace
from .deadline import Deadline
from .errors import DeadlineExceeded, ResourceInfeasible, SearchBudgetExceeded

if TYPE_CHECKING:  # pragma: no cover - type-only; avoids a hard analysis dep
    from ..analysis.symmetry import PruneHints

__all__ = ["PRUNE_REASONS", "RGResult", "SearchRecord", "regression_search"]

_INF = math.inf

PRUNE_REASONS = ("replay", "transposition", "heuristic", "symmetry")

# The anytime probe: weighted A* (f' = g + weight*h), capped at this many
# created nodes before the optimal search takes over.
_PROBE_BUDGET = 4096
_PROBE_WEIGHT = 2.0

# Fixed histogram bounds for the RG work distributions (docs/OBSERVABILITY.md).
_TAIL_BOUNDS = (1, 2, 4, 8, 16, 32, 64)
_BRANCH_BOUNDS = (1, 2, 4, 8, 16, 32, 64, 128, 256)
_US_BOUNDS = (1, 2, 5, 10, 25, 50, 100, 250, 500, 1000)


# Transposition table: (props, sorted tail action indices) -> the queued
# nodes with that key, in creation order (their tails replay on demand).
_Seen = dict[tuple[frozenset[int], tuple[int, ...]], list["_Node"]]


@dataclass(slots=True)
class _Node:
    """One RG search node.

    ``tail_ids`` (the indices of the actions on the path back to the
    root, sorted: a tuple is a third the size of a frozenset, and most
    nodes wait in the queue) and ``depth`` (the tail length) are computed
    incrementally at construction — O(1) amortized bookkeeping per node
    instead of re-walking the parent chain for every candidate child.  ``f`` is the
    node's priority in its open list.  ``valid`` caches the tail replay's
    verdict: ``None`` until the tail is replayed, then whether it
    replayed cleanly.
    """

    props: frozenset[int]
    g: float
    action: GroundAction | None
    parent: "_Node | None"
    depth: int
    tail_ids: tuple[int, ...] = ()
    f: float = 0.0
    valid: bool | None = None

    def tail(self) -> list[GroundAction]:
        """Plan tail in execution order (this node's action first)."""
        out: list[GroundAction] = []
        node: _Node | None = self
        while node is not None and node.action is not None:
            out.append(node.action)
            node = node.parent
        return out


class SearchRecord:
    """The RG's one account of its decisions (paper §3.2.3).

    Every candidate child ends in one decision: it is pruned for one of
    :data:`PRUNE_REASONS`, or it is *created* (it survived every prune,
    its tail replay included), or the search stops while it is still
    queued with its tail unreplayed.
    The record tallies each decision once — ``created`` (the root
    included), ``expanded``, ``pruned[reason]``, incumbents ``improved``
    and ``returned``, and the replay work — and the views hang off the
    same calls: the bounded :class:`~repro.obs.SearchTrace` ring and the
    RG histograms per event, the ``rg.prune.*``/``rg.incumbent.*``
    counters from the tally (:meth:`publish`), and
    :meth:`PlannerStats.fill_rg <repro.planner.PlannerStats.fill_rg>`
    from the :class:`RGResult` that carries it.
    """

    def __init__(self, trace: SearchTrace | None = None, metrics: MetricsRegistry | None = None):
        self.created = 1
        self.expanded = 0
        self.pruned = dict.fromkeys(PRUNE_REASONS, 0)
        self.improved = 0
        self.returned = 0
        self.replay = ReplayCounters()
        self.trace = trace
        self.metrics = metrics
        if metrics is not None:
            self._branch = metrics.histogram("rg.branching_factor", _BRANCH_BOUNDS)
            self._tail = metrics.histogram("rg.replay.tail_length", _TAIL_BOUNDS)
            self._us = metrics.histogram("rg.replay.us_per_action", _US_BOUNDS)
            self._f = metrics.histogram("rg.f_value")

    def expand(self, node: _Node, open_props: int, f: float, candidates: int) -> None:
        self.expanded += 1
        if self.trace is not None:
            self.trace.expanded(open_props, f, node.depth)
        if self.metrics is not None:
            self._branch.observe(candidates)

    def prune(self, action: GroundAction, reason: str, depth: int, detail: str) -> None:
        self.pruned[reason] += 1
        if self.trace is not None:
            self.trace.pruned(action.name, reason, depth, detail)

    def replayed(self, node: _Node, started: float) -> None:
        """``node``'s tail replayed cleanly from ``started``: it is created."""
        self.created += 1
        if self.trace is not None:
            self.trace.created(node.action.name, node.f, node.depth)
        if self.metrics is not None:
            self._tail.observe(node.depth)
            self._us.observe((time.perf_counter() - started) * 1e6 / node.depth)

    def queued(self, f: float) -> None:
        """A child enters an open list, its tail not necessarily replayed."""
        if self.metrics is not None:
            self._f.observe(f)

    def terminal(self, node: _Node) -> None:
        if self.trace is not None:
            self.trace.terminal(node.g, node.depth)

    def publish(self) -> None:
        """Add the tally to the ``rg.prune.*`` and ``rg.incumbent.*`` counters."""
        if self.metrics is None:
            return
        for reason, count in self.pruned.items():
            self.metrics.inc(f"rg.prune.{reason}", count)
        if self.improved:
            self.metrics.inc("rg.incumbent.improved", self.improved)
        if self.returned:
            self.metrics.inc("rg.incumbent.returned", self.returned)


@dataclass
class RGResult:
    """Outcome of the RG search.

    ``incumbent`` marks an *anytime* result: the search was cut short (by
    deadline or node budget) and returned its best complete plan found so
    far instead of the proven optimum.  ``stop_reason`` says why the
    search ended: ``"optimal"``, ``"deadline"``, or ``"node_budget"``.
    ``lower_bound`` is the proven bound on the optimal cost within the
    leveling: ``cost_lb`` itself for an optimum, and the open frontier's
    smallest f (never above the incumbent's cost) for an incumbent.
    """

    plan_actions: list[GroundAction]
    cost_lb: float
    lower_bound: float
    nodes_left_in_queue: int  # Table 2, column 8 (second number)
    record: SearchRecord
    incumbent: bool = False
    stop_reason: str = "optimal"

    @property
    def nodes_created(self) -> int:
        """Table 2, column 8 (first number)."""
        return self.record.created

    @property
    def nodes_expanded(self) -> int:
        return self.record.expanded

    @property
    def replay(self) -> ReplayCounters:
        return self.record.replay


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
    symmetry: "PruneHints | None" = None,
) -> RGResult:
    """A* regression with plan-tail replay.

    A node's tail is replayed when the node is popped, from the main heap
    or the anytime probe's, and a node that fails is dropped there, so a
    quality-of-service violation is still caught before the node is
    expanded.  Two replays come sooner: a complete child's, when it is
    made, and an earlier transposition twin's, when a later child would
    be pruned by it.  A node is *created* once its tail replays cleanly;
    ``node_budget`` counts created nodes, the root included.

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
        replay microseconds) plus per-reason prune counters.  Both are
        views of the run's :class:`SearchRecord`; the counters are
        published on every exit, a raised error included.
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
        mode first runs a bounded weighted-A* *probe* (``f' = g + 2h``, up
        to 4096 created nodes) to establish an initial incumbent quickly;
        the probe's plan is feasible (replay-checked) but usually
        suboptimal.  The probe expands through the same child generator
        as the main loop, so its work is in the same record.
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

    root = _Node(
        props=frozenset(problem.goal_prop_ids), g=0.0, action=None, parent=None, depth=0,
        valid=True,
    )
    rec = SearchRecord(trace, metrics)
    replay = rec.replay
    clock = time.perf_counter
    counter = itertools.count()
    interned: dict[frozenset[int], frozenset[int]] = {}

    def replays_cleanly(node: _Node) -> bool:
        """Replay ``node``'s tail once and cache the verdict on the node.

        The tail (the node's action first, walking up the parent chain)
        runs in the optimistic map seeded from the initial state.  A clean
        replay creates the node; a failed one prunes it.
        """
        if node.valid is None:
            rmap = problem.initial_map()
            replay.replays += 1
            started = clock()
            try:
                step: _Node | None = node
                while step is not None and step.action is not None:
                    step.action.replay(rmap, replay)
                    step = step.parent
            except ReplayFailure as exc:
                node.valid = False
                rec.prune(node.action, "replay", node.depth, exc.reason)
                return False
            node.valid = True
            rec.replayed(node, started)
        return node.valid

    def children(
        node: _Node, open_props: frozenset[int], f: float, seen: _Seen, weight: float
    ) -> Iterator[tuple[_Node, float]]:
        """Expand ``node``: yield ``(child, h)`` for each child to queue.

        Children must achieve at least one open proposition (the paper's
        rule): by default any one; with ``branch_all_props`` off, the
        hardest only.  A child is pruned as a repeat of a tail action
        (silently: add-only logic never needs one), as a verified
        symmetry image, as a transposition of an earlier ``seen`` twin no
        dearer than it whose tail replays cleanly, or by an infinite
        heuristic.  A surviving child gets ``f = g + weight * h``; its tail
        replay waits for its pop, unless it is complete, when a failed
        replay prunes it here.  Every decision goes to the record once.
        """
        candidate_actions: set[int] = set()
        if branch_all_props:
            for pid in open_props:
                candidate_actions.update(achievers.get(pid, ()))
        else:
            target = max(open_props, key=prop_rank)
            candidate_actions.update(achievers.get(target, ()))
        rec.expand(node, len(open_props), f, len(candidate_actions))

        tail_ids = node.tail_ids
        depth = node.depth + 1
        mentioned: set[str] | None = None  # nodes touched by props/tail, lazy
        for a_idx in candidate_actions:
            if a_idx in tail_ids:
                continue
            action = actions[a_idx]
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
                        rec.prune(action, "symmetry", depth, f"swap image under {rep}~{other}")
                        continue
            new_props = frozenset((node.props - action.add_props) | action.pre_props)
            # Many queued nodes share a proposition set; they share one object.
            new_props = interned.setdefault(new_props, new_props)
            ng = node.g + action.cost_lb
            at = bisect(tail_ids, a_idx)
            child_tail_ids = tail_ids[:at] + (a_idx,) + tail_ids[at:]
            key = (new_props, child_tail_ids)
            twins = seen.get(key)
            if twins is not None and any(t.g <= ng and replays_cleanly(t) for t in twins):
                rec.prune(action, "transposition", depth, "duplicate tail set")
                continue

            nh = heuristic(new_props)
            if nh == _INF:
                rec.prune(action, "heuristic", depth, "infinite cost-to-go")
                continue
            child = _Node(
                props=new_props, g=ng, action=action, parent=node, depth=depth,
                tail_ids=child_tail_ids, f=ng + weight * nh,
            )
            if new_props <= initial and not replays_cleanly(child):
                continue
            if twins is None:
                seen[key] = [child]
            else:
                twins.append(child)
            yield child, nh

    def probe(h0: float) -> _Node | None:
        """Weighted A* (``f' = g + 2h``): find *some* complete plan fast.

        Children come from :func:`children` and a popped node's tail is
        replayed before it is expanded, so a returned node is a feasible
        plan; its cost is within :data:`_PROBE_WEIGHT` times the
        optimum.  Pure h-greedy descent drowns in this space — feasible
        complete tails are rare off the cost-ordered frontier — but
        inflating h by 2 keeps enough g-ordering to reach a terminal in a
        few thousand nodes on the Fig. 10 instances.
        """
        pheap: list[tuple[float, float, int, _Node]] = [
            (_PROBE_WEIGHT * h0, h0, next(counter), root)
        ]
        pseen: _Seen = {}
        cap = rec.created + _PROBE_BUDGET
        while pheap:
            if deadline is not None and deadline.poll():
                return None
            f, _h, _tie, node = heapq.heappop(pheap)
            if not replays_cleanly(node):
                continue
            open_props = node.props - initial
            if not open_props:
                return node
            for child, nh in children(node, open_props, f, pseen, _PROBE_WEIGHT):
                if child.props <= initial:
                    return child
                if rec.created > cap:
                    return None
                rec.queued(child.f)
                heapq.heappush(pheap, (child.f, nh, next(counter), child))
        return None

    heap: list[tuple[float, float, int, _Node]] = []
    incumbent: _Node | None = None

    def _interrupted(reason: str, frontier: float) -> RGResult:
        """Return the incumbent on early stop, or raise the structured error.

        ``frontier`` is the smallest f still open (the queue's head, or the
        node being expanded); with the incumbent's cost it bounds the
        optimum from below.
        """
        if allow_incumbent and incumbent is not None:
            rec.returned += 1
            rec.terminal(incumbent)
            return RGResult(
                plan_actions=incumbent.tail(),
                cost_lb=incumbent.g,
                lower_bound=min(frontier, incumbent.g),
                nodes_left_in_queue=len(heap),
                record=rec,
                incumbent=True,
                stop_reason=reason,
            )
        if reason == "deadline":
            raise DeadlineExceeded(
                phase="rg",
                time_limit_s=deadline.time_limit_s,
                nodes_expanded=rec.expanded,
                nodes_created=rec.created,
                elapsed_s=deadline.elapsed_s(),
            )
        # elapsed_s stays 0.0: Planner.solve fills in the rg span's time.
        raise SearchBudgetExceeded(
            phase="rg",
            nodes_expanded=rec.expanded,
            nodes_created=rec.created,
            budget=node_budget,
        )

    try:
        h0 = heuristic(root.props)
        if h0 == _INF:
            raise ResourceInfeasible("goal set has no logical support")
        if allow_incumbent:
            incumbent = probe(h0)
            if incumbent is not None:
                rec.improved += 1
        # Ties on f are broken toward smaller h (deeper progress), which
        # walks a uniform-cost plateau depth-first instead of flooding it.
        heap.append((h0, h0, next(counter), root))
        seen: _Seen = {}
        while heap:
            if deadline is not None and deadline.poll():
                return _interrupted("deadline", heap[0][0])
            f, _h, _tie, node = heapq.heappop(heap)
            # The tail replay deferred from creation: a node that fails it
            # is dropped here, before it is expanded.
            if not replays_cleanly(node):
                continue
            open_props = node.props - initial
            if not open_props:
                # Logically satisfied, and the tail replayed against the
                # exact initial map (the replay base *is* the initial
                # map), so this is terminal.
                rec.terminal(node)
                return RGResult(
                    plan_actions=node.tail(),
                    cost_lb=node.g,
                    lower_bound=node.g,
                    nodes_left_in_queue=len(heap),
                    record=rec,
                )
            if rec.created > node_budget:
                return _interrupted("node_budget", f)
            for child, nh in children(node, open_props, f, seen, 1.0):
                # Anytime state: the cheapest complete node created so far
                # (a valid plan the moment it is created: its replay base
                # *is* the initial map), standing in for the optimum when
                # the search is cut short.
                if allow_incumbent and child.props <= initial:
                    if incumbent is None or child.g < incumbent.g:
                        incumbent = child
                        rec.improved += 1
                if rec.created > node_budget:
                    return _interrupted("node_budget", min(f, heap[0][0]) if heap else f)
                rec.queued(child.f)
                heapq.heappush(heap, (child.f, nh, next(counter), child))

        raise ResourceInfeasible(
            "no deployment plan survives resource replay (the goal is logically "
            "reachable but every candidate plan violates resource constraints)"
        )
    finally:
        rec.publish()
