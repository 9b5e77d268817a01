"""Cost-function sanity.

The post-optimizer and the admissible search heuristics assume costs are
defined on every reachable state, never negative, and do not *decrease* as
the processed bandwidth grows (cheapest-level lower bounds would otherwise
overestimate).  This pass verifies each component placement cost and each
interface crossing cost over the reachable value ranges:

* ``COST001`` — the cost image includes negative values;
* ``COST002`` — the cost is nonincreasing or unclassifiable in a stream
  property (the level lower bound may then exceed the exact cost);
* ``COST003`` — the cost is undefined somewhere on the reachable ranges
  (division by zero or an unregistered profile function).
"""

from __future__ import annotations

from ..compile.actions import is_resource_var
from ..expr import Direction, monotonicity, variables
from ..expr.ast_nodes import Node
from ..expr.errors import EvalError
from ..expr.evaluator import eval_interval
from ..intervals import Interval
from .context import LintContext, comp_loc, iface_loc
from .diagnostics import LintReport, Severity, SourceLocation

__all__ = ["run"]


def _check_cost(
    ctx: LintContext,
    report: LintReport,
    cost: Node,
    env: dict[str, Interval],
    loc: SourceLocation,
) -> None:
    try:
        image = eval_interval(cost, env)
    except EvalError as exc:
        report.add(
            "COST003",
            Severity.ERROR,
            f"cost cannot be evaluated over the reachable value ranges "
            f"({exc}); the planner would fail mid-search",
            loc,
        )
        return
    if not image.is_empty() and image.lo < -1e-9:
        report.add(
            "COST001",
            Severity.ERROR,
            f"cost image {image} includes negative values; costs must be "
            "non-negative for the admissible search bounds to hold",
            loc,
        )
    for var in sorted(variables(cost)):
        if is_resource_var(var):
            continue
        direction = monotonicity(cost, var)
        if direction in (Direction.NONINCREASING, Direction.UNKNOWN):
            report.add(
                "COST002",
                Severity.WARNING,
                f"cost is {direction.name.lower().replace('_', '-')} in "
                f"{var}; the cost optimizer prices committed levels at "
                "their cheapest value and assumes costs do not shrink as "
                "demand grows",
                loc,
            )


def run(ctx: LintContext, report: LintReport) -> None:
    for comp in ctx.app.components.values():
        if comp.cost is None:
            continue
        _check_cost(
            ctx,
            report,
            comp.cost,
            ctx.component_env(comp),
            comp_loc(comp, "cost", None, comp.cost),
        )
    for iface in ctx.app.interfaces.values():
        if iface.cross_cost is None:
            continue
        _check_cost(
            ctx,
            report,
            iface.cross_cost,
            ctx.interface_env(iface),
            iface_loc(iface, "cross_cost", None, iface.cross_cost),
        )
