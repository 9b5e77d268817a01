"""Phase 2 — the set logical regression graph (paper §3.2.2).

The SLRG refines the PLRG's per-proposition costs into costs of *sets* of
propositions: the nodes of the SLRG are proposition sets, new nodes are
generated by regressing over achiever actions, and the search is A* with
the PLRG cost as the heuristic.  Set costs are more accurate than
``max`` over members because actions that must happen in sequence have
their costs added (the paper's 18 → 19 example).

The CPP compiled here is delete-free in its logical layer (resources are
not propositions), so regression may fix any one open proposition and
branch only over its achievers without losing completeness — any plan can
be reordered to make an achiever of the selected proposition come last.
We select the proposition with the highest PLRG cost (the hardest
subgoal), which keeps the branching factor low.

Set costs are memoized across queries: a completed query records, for
every node on the regression path it returned, the answer minus that
node's g.  These memos are not always exact.  A query that pops a set
with a memoized cost returns ``g + cached`` at once, without checking
that nothing cheaper is left in its heap, and memoizes that total along
its path.  An answer can therefore exceed the true set cost, and it
depends on the queries asked before it
(``tests/planner/test_slrg.py``, an expected failure).
Queries carry a node budget — when exhausted, the admissible ``hmax``
fallback is returned instead.
"""

from __future__ import annotations

import heapq
import itertools
import math

from ..compile import CompiledProblem
from ..obs import Telemetry
from .deadline import Deadline
from .plrg import PLRG

__all__ = ["SLRG"]

_INF = math.inf


class SLRG:
    """Lazy, memoizing set-cost oracle.

    With a ``deadline``, each query's A* polls it and — like budget
    exhaustion — falls back to the admissible PLRG ``hmax`` bound when it
    expires, so an out-of-time SLRG degrades the heuristic instead of
    aborting the solve (the RG's own deadline poll ends the run).
    """

    def __init__(
        self,
        problem: CompiledProblem,
        plrg: PLRG,
        node_budget: int = 50_000,
        telemetry: Telemetry | None = None,
        deadline: Deadline | None = None,
    ):
        self.problem = problem
        self.plrg = plrg
        self.node_budget = node_budget
        self.telemetry = telemetry
        self.deadline = deadline
        self._exact: dict[frozenset[int], float] = {}
        self.nodes_created = 0  # total set nodes (Table 2, column 7)
        self.queries = 0
        self.budget_hits = 0
        self.cache_hits = 0
        self.deadline_hits = 0
        # achiever lists restricted to usable actions
        usable = set(plrg.usable_actions)
        self._achievers: dict[int, list[int]] = {
            pid: [a for a in acts if a in usable]
            for pid, acts in problem.achievers.items()
        }

    # ------------------------------------------------------------------ api

    def query(self, props: frozenset[int]) -> float:
        """Minimum logical cost of achieving ``props`` from the initial state.

        The A*'s answer when it completes within budget (the module
        docstring says when a memo makes that overestimate); otherwise
        falls back to the (still admissible) PLRG ``hmax`` bound.
        """
        open_props = props - self.problem.initial_prop_ids
        if not open_props:
            return 0.0
        key = frozenset(open_props)
        cached = self._exact.get(key)
        if cached is not None:
            self.cache_hits += 1
            return cached
        self.queries += 1
        if self.telemetry is not None:
            self.telemetry.metrics.inc("slrg.queries")
        if self.deadline is not None and self.deadline.expired():
            # Out of time: answer every uncached query with hmax at once.
            self.deadline_hits += 1
            return self.plrg.set_cost(key)
        result = self._astar(key)
        if result is not None:
            return result
        self.budget_hits += 1
        if self.telemetry is not None:
            self.telemetry.metrics.inc("slrg.budget_hits")
        return self.plrg.set_cost(key)

    # ------------------------------------------------------------------ search

    def _astar(self, root: frozenset[int]) -> float | None:
        initial = self.problem.initial_prop_ids
        actions = self.problem.actions
        h_root = self.plrg.set_cost(root)
        if h_root == _INF:
            return _INF

        counter = itertools.count()
        # Heap entries: (f, h, tie, g, props, parent_entry_or_None); ties on
        # f break toward smaller h (depth-first across plateaus).  Parents
        # are tracked so exact costs propagate down the optimal path.
        heap: list = [(h_root, h_root, next(counter), 0.0, root, None)]
        best_g: dict[frozenset[int], float] = {root: 0.0}
        expanded = 0

        while heap:
            f, _h, _tie, g, props, parent = heapq.heappop(heap)
            if g > best_g.get(props, _INF):
                continue
            open_props = props - initial
            if not open_props:
                # Terminal: walk the path, assigning exact costs.
                total = g
                node = (f, _h, _tie, g, props, parent)
                while node is not None:
                    _f, _hh, _t, ng, nprops, nparent = node
                    nopen = frozenset(nprops - initial)
                    cost_to_init = total - ng
                    prev = self._exact.get(nopen)
                    if prev is None or cost_to_init < prev:
                        self._exact[nopen] = cost_to_init
                    node = nparent
                return total

            expanded += 1
            if expanded > self.node_budget:
                return None
            if self.deadline is not None and self.deadline.poll():
                self.deadline_hits += 1
                if self.telemetry is not None:
                    self.telemetry.metrics.inc("slrg.deadline_hits")
                return None

            # Cached subresult: if the whole open set has a known exact
            # cost, finish immediately through it.
            cached = self._exact.get(open_props)
            if cached is not None:
                total = g + cached
                node = (f, _h, _tie, g, props, parent)
                while node is not None:
                    _f, _hh, _t, ng, nprops, nparent = node
                    nopen = frozenset(nprops - initial)
                    cost_to_init = total - ng
                    prev = self._exact.get(nopen)
                    if prev is None or cost_to_init < prev:
                        self._exact[nopen] = cost_to_init
                    node = nparent
                return total

            # Select the hardest open proposition; branch over its achievers.
            target = max(open_props, key=self.plrg.cost)
            me = (f, _h, _tie, g, props, parent)
            for a_idx in self._achievers.get(target, ()):
                action = actions[a_idx]
                new_props = frozenset((props - action.add_props) | action.pre_props)
                ng = g + action.cost_lb
                if ng >= best_g.get(new_props, _INF):
                    continue
                nh = self.plrg.set_cost(new_props)
                if nh == _INF:
                    continue
                best_g[new_props] = ng
                self.nodes_created += 1
                heapq.heappush(heap, (ng + nh, nh, next(counter), ng, new_props, me))
        self._exact[root] = _INF  # exhausted: logically unreachable set
        return _INF
