"""Human-readable infeasibility diagnosis.

When planning fails, "ResourceInfeasible" alone doesn't tell an operator
*what* to fix.  This module re-examines the compiled problem — including
the actions removed by best-value reachability pruning — and produces
concrete explanations: which goal placements were pruned, which condition
failed, and what the best achievable value of the offending stream was.
It judges nothing itself: each reason is reachability's own verdict on
the action (:meth:`~repro.compile.reachability._Template.evaluate` under
the final best values), formatted.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..expr import variables
from .actions import GroundAction
from .problem import CompiledProblem, stream_values
from .reachability import Blocked, _best_value_fixed_point, _Template, bind_templates

__all__ = ["Diagnosis", "diagnose"]


@dataclass
class Diagnosis:
    """Explanation of why a problem (or one goal) cannot be solved."""

    findings: list[str]

    def __str__(self) -> str:
        if not self.findings:
            return "no infeasibility found at the static level"
        return "\n".join(f"- {f}" for f in self.findings)


def _reason(
    action: GroundAction,
    template: _Template,
    gvars: tuple[str, ...],
    best: dict[str, float],
) -> str:
    """Why ``action`` is unusable under the best-value map, formatted."""
    values = tuple(map(best.get, gvars))
    verdict = template.evaluate(values)
    name = action.name
    if not isinstance(verdict, Blocked):
        return f"{name}: usable, but its support chain is broken upstream"
    at = verdict.at
    if verdict.kind == "missing":
        return f"{name}: input stream {gvars[at]} is unreachable from any pre-placed source"
    if verdict.kind == "floor":
        return (
            f"{name}: committed level needs at least {template.committed[at].lo:g} "
            f"of {gvars[at]}, but at most {values[at]:g} can reach it"
        )
    if at is None:
        return f"{name}: a produced value cannot be evaluated"
    cond = action.conditions[at]
    if verdict.kind == "error":
        return f"{name}: condition {cond.unparse()} cannot be evaluated"
    env = verdict.env
    shown = ", ".join(f"{v}∈{env[v]!r}" for v in sorted(variables(cond)) if v in env)
    return f"{name}: condition {cond.unparse()} unsatisfiable ({shown})"


def diagnose(problem: CompiledProblem) -> Diagnosis:
    """Explain why the goal has no support, if it doesn't.

    Reports, per goal placement, either "supported" or the concrete
    reasons every candidate placement action is unusable.  Useful after a
    ``ResourceInfeasible`` (the RG-level variant — resource exhaustion
    along every plan — is inherently dynamic and is reported by the
    search itself).
    """
    findings: list[str] = []
    best, _feasible = _best_value_fixed_point(
        problem.actions, stream_values(problem._initial_streams)
    )
    for pid in sorted(problem.goal_prop_ids):
        achievers = problem.achievers.get(pid, [])
        goal_str = problem.prop_str(pid)
        if achievers:
            findings.append(f"goal {goal_str}: supported by {len(achievers)} action(s)")
            continue
        # Placement actions for the goal's component, kept or pruned.
        comp = getattr(problem.props[pid], "component", None)
        candidates = [
            a
            for a in problem.actions + problem.pruned_actions
            if a.kind == "place" and a.subject == comp
        ]
        if not candidates:
            findings.append(
                f"goal {goal_str}: no placement actions were ever grounded "
                "(check pins, software constraints, and level feasibility)"
            )
            continue
        findings.append(f"goal {goal_str}: all {len(candidates)} placements pruned:")
        templates, reads = bind_templates(candidates, _Template)
        for action, template, gvars in zip(candidates, templates, reads):
            findings.append(f"  {_reason(action, template, gvars, best)}")
    return Diagnosis(findings)
