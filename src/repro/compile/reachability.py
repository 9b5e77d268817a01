"""Best-value reachability pruning, and the template fixpoint it runs on.

A cheap static analysis run after grounding: propagate, per ground
interface-property variable, the *best value optimistically achievable*
from the pre-placed sources — ignoring resource sharing and consumption,
which only lower values.  An action whose committed input intervals or
conditions cannot be satisfied even at these best values can never appear
in a plan and is pruned.

This is what lets the planner *prove* greedy (scenario A) infeasibility
instantly instead of exhausting the regression space: with the trivial
leveling, the Client's ``M.ibw >= 90`` condition is unsatisfiable once the
best deliverable value at its node is capped at 70 by the WAN links, so
the Client has no ground placements at all and the goal is unreachable.
The paper attributes exactly this effect to leveling — "identification of
some resource conflicts at earlier (and cheaper) phases of the search" —
and the analysis strengthens it to the unleveled case.

The analysis is sound (never prunes an action that some valid plan uses):
values are upper bounds, and all specification functions are monotone.

This module is also the one home of the template-memoized fixpoint:
:func:`bind_templates` binds each action to its template's state and its
read ground variables, and :func:`run_worklist` drives the worklist.  The
envelope fixpoint of :mod:`repro.analysis.envelopes` runs on both with its
own lattice, and :func:`repro.compile.diagnose` formats the
:class:`Blocked` verdict of :meth:`_Template.evaluate`.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Iterable

from ..expr import EvalError, compile_condition_satisfiable, compile_interval
from ..intervals import Interval
from .actions import EffectKind, GroundAction, GroundingTemplate, is_resource_var

__all__ = ["prune_unreachable_actions", "logically_reachable"]

_MAX_PASSES = 50  # safety budget only; widening converges first
_WIDEN_AFTER = 8  # strict increases of a best value; the next one widens it to +inf

_PRODUCE_KINDS = (
    EffectKind.PRODUCE,
    EffectKind.PRODUCE_DEGRADABLE,
    EffectKind.PRODUCE_UPGRADABLE,
)


def bind_templates(
    actions: list[GroundAction], make: Callable[[GroundingTemplate], Any]
) -> tuple[list[Any], list[tuple[str, ...]]]:
    """Each action's template state and its read ground variables.

    ``make`` builds a template's state once per grounding template (found
    by ``id``); the state's ``reads`` lays out the variables it reads as
    ``(prefix, site)``, bound here to each action's sites.  Only these two
    lists (and the worklist's dependents index) live through a fixpoint:
    every object that does is promoted by the garbage collector, and on a
    large heap (a compile cache of forked problems) that buys full
    collections.
    """
    by_template: dict[int, Any] = {}
    states: list[Any] = []
    reads: list[tuple[str, ...]] = []
    for action in actions:
        state = by_template.get(id(action.template))
        if state is None:
            state = by_template[id(action.template)] = make(action.template)
        sites = action.sites
        states.append(state)
        reads.append(tuple([prefix + sites[site] for prefix, site in state.reads]))
    return states, reads


def run_worklist(
    reads: list[tuple[str, ...]], visit: Callable[[int], Iterable[str]]
) -> tuple[int, bool]:
    """Visit positions to a fixed point; returns (visits, converged).

    The queue starts with every position in order.  ``visit(position)``
    joins the position's writes in its own lattice and returns the
    variables that changed; every position reading one of them is then
    queued, in position order, unless it already is.  Deterministic: the
    same reads and visits give the same visit sequence.  After
    ``len(reads) * _MAX_PASSES`` visits the run stops unconverged — a
    safety budget only, since every domain widens first.
    """
    dependents: dict[str, list[int]] = {}
    for position, gvars in enumerate(reads):
        for gvar in gvars:
            dependents.setdefault(gvar, []).append(position)
    queue: deque[int] = deque(range(len(reads)))
    queued = bytearray(b"\x01") * len(reads)
    budget = len(reads) * _MAX_PASSES
    visits = 0
    while queue:
        visits += 1
        if visits > budget:  # pragma: no cover - widening converges first
            return visits, False
        position = queue.popleft()
        queued[position] = 0
        for gvar in visit(position):
            for dep in dependents.get(gvar, ()):
                if not queued[dep]:
                    queue.append(dep)
                    queued[dep] = 1
    return visits, True


@dataclass(frozen=True, slots=True)
class Blocked:
    """Why a template is infeasible under some input best values.

    ``kind`` is ``"missing"`` (input ``at`` is not reachable), ``"floor"``
    (input ``at``'s committed floor is above its best value),
    ``"condition"`` (condition ``at`` is unsatisfiable over ``env``) or
    ``"error"`` (condition ``at`` — or, when ``at`` is None, a produced
    value — cannot be evaluated).
    """

    kind: str
    at: int | None
    env: dict[str, Interval] | None = None


class _Template:
    """What reachability reads of one grounding template, plus its memo.

    Every ground action of a template shares the template's ``committed``
    dict, conditions, effects and effect kinds (clones share them too), so
    an action's evaluation depends only on its template and on the best
    values of its input streams: ``memo`` maps those values to the
    produced best values (in ``produce`` order), or to the :class:`Blocked`
    verdict when the action is infeasible under them.  Input streams
    (``reads``: committed variables that are not resources) and produced
    variables are held as ``(prefix, site)`` layouts, bound per action to
    its sites, so the fixed point never builds an action's ``var_map`` or
    targets.

    Conditions and produced right-hand sides are held as compiled
    closures.  Grounding has already compiled each of these formulas
    (a template exists only if all of them evaluated), so compilation
    cannot fail here.
    """

    __slots__ = ("specs", "reads", "committed", "resources", "conditions", "produce", "memo")

    def __init__(self, template: GroundingTemplate):
        committed = template.committed
        layout = [
            entry
            for entry in template.var_layout
            if entry[0] in committed and not is_resource_var(entry[0])
        ]
        self.specs = tuple(spec_var for spec_var, _prefix, _site in layout)
        self.reads = tuple((prefix, site) for _spec_var, prefix, site in layout)
        self.committed = tuple(committed[s] for s in self.specs)
        # Resources enter at their static grounding ranges.
        self.resources = tuple((s, iv) for s, iv in committed.items() if is_resource_var(s))
        self.conditions = tuple(compile_condition_satisfiable(c) for c in template.conditions)
        self.produce = tuple(
            (prefix, site, compile_interval(assign.expr))
            for assign, (prefix, site, kind) in zip(template.effects, template.target_layout)
            if kind in _PRODUCE_KINDS
        )
        self.memo: dict[tuple, tuple[float, ...] | Blocked] = {}

    def evaluate(self, values: tuple) -> tuple[float, ...] | Blocked:
        """Best produced values under input best ``values``, or why none."""
        env: dict[str, Interval] = {}
        for at, (spec_var, committed, avail) in enumerate(
            zip(self.specs, self.committed, values)
        ):
            if avail is None:
                return Blocked("missing", at)  # input stream not (yet) reachable here
            if committed.lo > avail + 1e-9:
                return Blocked("floor", at)  # committed level above anything achievable
            clipped = committed.intersect(Interval.closed(0.0, avail))
            if clipped.is_empty():
                return Blocked("floor", at)
            env[spec_var] = clipped
        env.update(self.resources)
        for at, cond in enumerate(self.conditions):
            try:
                if not cond(env):
                    return Blocked("condition", at, env)
            except EvalError:
                return Blocked("error", at)  # e.g. unregistered function: keep out
        try:
            return tuple(fn(env).hi for _prefix, _site, fn in self.produce)
        except EvalError:
            return Blocked("error", None)


def _best_value_fixed_point(
    actions: list[GroundAction],
    initial_stream_values: dict[str, float],
) -> tuple[dict[str, float], bytearray]:
    """Best value of every reachable stream variable, and which actions
    are feasible under those values (one flag per position in ``actions``).

    A worklist: an action is (re-)evaluated only when the best value of
    one of its input variables improves, which keeps the fixed point
    near-linear in practice.  Evaluations are memoized per (template,
    input best values), so interchangeable bindings are evaluated once.

    Once a best value has strictly increased :data:`_WIDEN_AFTER` times,
    its next increase widens it to ``+inf``: additive properties (the grid domain's latency)
    grow around network cycles without ever converging.  Widening only
    raises upper bounds, so it stays sound.  Should the safety budget
    still trip, the best map has not converged and proves nothing
    infeasible, so every action is reported feasible.
    """
    best: dict[str, float] = dict(initial_stream_values)
    feasible = bytearray(len(actions))
    template_of, inputs = bind_templates(actions, _Template)
    increases: dict[str, int] = {}

    def visit(position: int) -> list[str] | tuple[()]:
        template = template_of[position]
        values = tuple(map(best.get, inputs[position]))
        out = template.memo.get(values)
        if out is None:
            out = template.memo[values] = template.evaluate(values)
        if isinstance(out, Blocked):
            return ()
        feasible[position] = 1
        # Bind the produced values to this action's sites; where two
        # effects write one variable, the last writer wins.
        sites = actions[position].sites
        produced: dict[str, float] = {}
        for (prefix, site, _fn), hi in zip(template.produce, out):
            produced[prefix + sites[site]] = hi
        changed = []
        for gvar, hi in produced.items():
            if math.isnan(hi):
                continue
            if hi > best.get(gvar, -math.inf) + 1e-9:
                count = increases.get(gvar, 0) + 1
                increases[gvar] = count
                best[gvar] = math.inf if count > _WIDEN_AFTER else hi
                changed.append(gvar)
        return changed

    _visits, converged = run_worklist(inputs, visit)
    if not converged:  # pragma: no cover - widening converges first
        feasible = bytearray(b"\x01") * len(actions)
    return best, feasible


def prune_unreachable_actions(
    actions: list[GroundAction],
    initial_stream_values: dict[str, float],
) -> tuple[list[GroundAction], list[GroundAction]]:
    """Fixed-point best-value propagation; returns (kept, pruned) actions.

    ``initial_stream_values`` maps ground stream variables produced by
    pre-placed components to their exact values.  Kept actions are
    renumbered in order.
    """
    _best, feasible = _best_value_fixed_point(actions, initial_stream_values)
    kept = [a for a, ok in zip(actions, feasible) if ok]
    removed = [a for a, ok in zip(actions, feasible) if not ok]
    for new_index, action in enumerate(kept):
        action.index = new_index
    return kept, removed


def logically_reachable(
    actions: list[GroundAction],
    initial_props: frozenset[int],
    goal_props: frozenset[int],
) -> bool:
    """Plain boolean reachability of the goal, ignoring all resources.

    Used to distinguish *logical* unsolvability from resource-caused
    infeasibility after reachability pruning has emptied the goal's
    support.
    """
    achieved = set(initial_props)
    remaining = list(actions)
    progress = True
    while progress and not goal_props <= achieved:
        progress = False
        still = []
        for action in remaining:
            if action.pre_props <= achieved:
                if not action.add_props <= achieved:
                    achieved |= action.add_props
                    progress = True
            else:
                still.append(action)
        remaining = still
    return goal_props <= achieved
