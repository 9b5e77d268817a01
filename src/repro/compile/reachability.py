"""Best-value reachability pruning.

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
"""

from __future__ import annotations

import math
from collections import deque
from typing import Callable

from ..expr import EvalError, compile_condition_satisfiable, compile_interval
from ..intervals import Interval
from .actions import EffectKind, GroundAction

__all__ = ["prune_unreachable_actions", "logically_reachable"]

_MAX_PASSES = 50

_PRODUCE_KINDS = (
    EffectKind.PRODUCE,
    EffectKind.PRODUCE_DEGRADABLE,
    EffectKind.PRODUCE_UPGRADABLE,
)


def _input_vars(action: GroundAction) -> list[tuple[str, str, Interval]]:
    """(spec var, ground var, committed interval) for stream inputs."""
    out = []
    for spec_var, gvar in action.var_map.items():
        committed = action.committed.get(spec_var)
        if committed is None or spec_var.startswith(("Node.", "Link.")):
            continue
        out.append((spec_var, gvar, committed))
    return out


def _closure(closures: dict, node, compile_fn: Callable) -> Callable:
    """``compile_fn(node)``, resolved once per formula object.

    Ground actions share their spec's condition and effect ASTs by
    reference, so keying on ``id(node)`` skips rehashing the frozen AST
    through the compile memo on every evaluation.  (A formula is either a
    condition or an effect right-hand side, never both, so one key space
    serves both kinds.)  Grounding has already compiled each of these
    formulas, so compilation cannot fail here.
    """
    fn = closures.get(id(node))
    if fn is None:
        fn = closures[id(node)] = compile_fn(node)
    return fn


def _try_action(
    action: GroundAction,
    best: dict[str, float],
    inputs: list[tuple[str, str, Interval]] | None = None,
    closures: dict | None = None,
) -> dict[str, float] | None:
    """Best output values of ``action`` under ``best``; None if infeasible.

    ``inputs`` is ``_input_vars(action)`` when the caller already has it;
    ``closures`` is a dict the caller keeps across calls (see
    :func:`_closure`).
    """
    if inputs is None:
        inputs = _input_vars(action)
    if closures is None:
        closures = {}
    env: dict[str, Interval] = {}
    for spec_var, gvar, committed in inputs:
        avail = best.get(gvar)
        if avail is None:
            return None  # input stream not (yet) reachable here
        if committed.lo > avail + 1e-9:
            return None  # committed level above anything achievable
        clipped = committed.intersect(Interval.closed(0.0, avail))
        if clipped.is_empty():
            return None
        env[spec_var] = clipped
    # Resources enter at their static grounding ranges.
    for spec_var, committed in action.committed.items():
        if spec_var.startswith(("Node.", "Link.")):
            env[spec_var] = committed

    try:
        for cond in action.conditions:
            if not _closure(closures, cond, compile_condition_satisfiable)(env):
                return None
        produced: dict[str, float] = {}
        for assign, (gvar, kind) in zip(action.effects, action.effect_targets):
            if kind in _PRODUCE_KINDS:
                produced[gvar] = _closure(closures, assign.expr, compile_interval)(env).hi
        return produced
    except EvalError:
        return None  # unresolvable (e.g. unregistered function): keep out


def prune_unreachable_actions(
    actions: list[GroundAction],
    initial_stream_values: dict[str, float],
) -> tuple[list[GroundAction], list[GroundAction]]:
    """Fixed-point best-value propagation; returns (kept, pruned) actions.

    ``initial_stream_values`` maps ground stream variables produced by
    pre-placed components to their exact values.

    Implemented as a worklist: an action is (re-)evaluated only when the
    best value of one of its input variables improves, which keeps the
    fixed point near-linear in practice (this is the compile hotspot on
    the 93-node network).  Each action's inputs are computed once, and each
    formula's compiled closure is resolved once per call.
    """
    best: dict[str, float] = dict(initial_stream_values)
    feasible: set[int] = set()

    # Dependents index: input ground var -> actions reading it.  Only
    # the inputs are kept per action: every object that lives through the
    # fixed point is promoted by the garbage collector, and on a large heap
    # (a compile cache of forked problems) that buys full collections.
    inputs = {action.index: _input_vars(action) for action in actions}
    closures: dict = {}
    dependents: dict[str, list[GroundAction]] = {}
    for action in actions:
        for _spec, gvar, _iv in inputs[action.index]:
            dependents.setdefault(gvar, []).append(action)

    queue: deque[GroundAction] = deque(actions)
    queued: set[int] = {a.index for a in actions}
    iterations = 0
    budget = len(actions) * _MAX_PASSES

    while queue:
        iterations += 1
        if iterations > budget:  # pragma: no cover - cyclic-amplifier guard
            break
        action = queue.popleft()
        queued.discard(action.index)
        outputs = _try_action(action, best, inputs[action.index], closures)
        if outputs is None:
            continue
        feasible.add(action.index)
        for gvar, hi in outputs.items():
            if math.isnan(hi):
                continue
            if hi > best.get(gvar, -math.inf) + 1e-9:
                best[gvar] = hi
                for dep in dependents.get(gvar, ()):
                    if dep.index not in queued:
                        queue.append(dep)
                        queued.add(dep.index)

    kept = [a for a in actions if a.index in feasible]
    removed = [a for a in actions if a.index not in feasible]
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
