"""Human-readable infeasibility diagnosis.

When planning fails, "ResourceInfeasible" alone doesn't tell an operator
*what* to fix.  This module re-examines the compiled problem — including
the actions removed by best-value reachability pruning — and produces
concrete explanations: which goal placements were pruned, which condition
failed, and what the best achievable value of the offending stream was.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..expr import condition_satisfiable, variables
from ..intervals import Interval
from .actions import GroundAction, iface_prop_var, is_resource_var
from .problem import CompiledProblem
from .reachability import _best_value_fixed_point, _input_layout

__all__ = ["Diagnosis", "diagnose"]


@dataclass
class Diagnosis:
    """Explanation of why a problem (or one goal) cannot be solved."""

    findings: list[str]

    def __str__(self) -> str:
        if not self.findings:
            return "no infeasibility found at the static level"
        return "\n".join(f"- {f}" for f in self.findings)


def _best_values(problem: CompiledProblem) -> dict[str, float]:
    """The best-value fixed point over the *kept* actions."""
    stream_values = {
        iface_prop_var(prop, iface, node): value
        for iface, node, value, _d, _u, prop in problem._initial_streams
    }
    best, _feasible = _best_value_fixed_point(problem.actions, stream_values)
    return best


def _explain_action(action: GroundAction, best: dict[str, float]) -> str | None:
    """Why this action is unusable under the best-value map, or None."""
    env: dict[str, Interval] = {}
    for spec_var, _prefix, _site in _input_layout(action.template):
        gvar = action.var_map[spec_var]
        committed = action.committed[spec_var]
        avail = best.get(gvar)
        if avail is None:
            return (
                f"{action.name}: input stream {gvar} is unreachable from any "
                f"pre-placed source"
            )
        if committed.lo > avail + 1e-9:
            return (
                f"{action.name}: committed level needs at least "
                f"{committed.lo:g} of {gvar}, but at most {avail:g} can reach it"
            )
        env[spec_var] = committed.intersect(Interval.closed(0.0, avail))
    for spec_var, committed in action.committed.items():
        if is_resource_var(spec_var):
            env[spec_var] = committed
    for cond in action.conditions:
        try:
            ok = condition_satisfiable(cond, env)
        except Exception:  # pragma: no cover - unresolved function etc.
            return f"{action.name}: condition {cond.unparse()} cannot be evaluated"
        if not ok:
            involved = sorted(variables(cond))
            values = ", ".join(
                f"{v}∈{env[v]!r}" for v in involved if v in env
            )
            return (
                f"{action.name}: condition {cond.unparse()} unsatisfiable "
                f"({values})"
            )
    return None


def diagnose(problem: CompiledProblem) -> Diagnosis:
    """Explain why the goal has no support, if it doesn't.

    Reports, per goal placement, either "supported" or the concrete
    reasons every candidate placement action is unusable.  Useful after a
    ``ResourceInfeasible`` (the RG-level variant — resource exhaustion
    along every plan — is inherently dynamic and is reported by the
    search itself).
    """
    findings: list[str] = []
    best = _best_values(problem)
    for pid in sorted(problem.goal_prop_ids):
        achievers = problem.achievers.get(pid, [])
        goal_str = problem.prop_str(pid)
        if achievers:
            findings.append(f"goal {goal_str}: supported by {len(achievers)} action(s)")
            continue
        prop = problem.props[pid]
        comp = getattr(prop, "component", None)
        candidates = [
            a
            for a in _all_candidate_actions(problem, comp)
            if comp is not None
        ]
        if not candidates:
            findings.append(
                f"goal {goal_str}: no placement actions were ever grounded "
                "(check pins, software constraints, and level feasibility)"
            )
            continue
        findings.append(f"goal {goal_str}: all {len(candidates)} placements pruned:")
        for action in candidates:
            reason = _explain_action(action, best)
            findings.append(
                f"  {reason if reason else action.name + ': usable, but its support chain is broken upstream'}"
            )
    return Diagnosis(findings)


def _all_candidate_actions(problem: CompiledProblem, component: str | None):
    """Placement actions for ``component`` among kept + pruned actions."""
    pool = list(problem.actions) + problem.pruned_actions
    return [a for a in pool if a.kind == "place" and a.subject == component]
