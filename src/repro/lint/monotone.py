"""Monotonicity and domain verification of specification formulas.

The leveled planner is only sound when every specification function is
monotone in each real-valued variable it reads (the paper's single
restriction on specifications) and total over the reachable value ranges.
This pass proves both syntactically:

* ``MONO001`` — a formula is not provably monotone in some variable
  (e.g. a product of two variable sub-expressions);
* ``MONO002`` — a division whose divisor can be zero somewhere in the
  reachable ranges (interval arithmetic over ``[0, bound]`` envelopes);
* ``MONO003`` — a call to a function with no registered profile table;
* ``MONO004`` — an effect that is *nonincreasing* in a degradable
  property: throttling the input would then raise an output or a
  consumption, breaking the degradable-matching semantics.
"""

from __future__ import annotations

from ..compile.actions import is_resource_var
from ..expr import Direction, monotonicity, variables
from ..expr.ast_nodes import And, Assign, BinOp, Call, Compare, Node
from ..expr.evaluator import eval_interval
from ..expr.errors import EvalError
from ..expr.functions import DEFAULT_REGISTRY
from ..intervals import Interval
from .context import LintContext, comp_loc, iface_loc
from .diagnostics import LintReport, Severity, SourceLocation

__all__ = ["run"]


def _comparison_sides(cond: Node):
    """All arithmetic sides of a condition (And-flattened)."""
    if isinstance(cond, And):
        for part in cond.parts:
            yield from _comparison_sides(part)
    elif isinstance(cond, Compare):
        yield cond.left
        yield cond.right


def _domain_problems(
    node: Node, env: dict[str, Interval]
) -> list[tuple[str, str]]:
    """(code, sub-expression) pairs for division/domain hazards."""
    problems: list[tuple[str, str]] = []

    def walk(n: Node) -> None:
        if isinstance(n, BinOp):
            walk(n.left)
            walk(n.right)
            if n.op == "/":
                try:
                    divisor = eval_interval(n.right, env)
                except EvalError:
                    return  # a nested hazard was already recorded
                if 0.0 in divisor:
                    problems.append(("MONO002", n.unparse()))
        elif isinstance(n, Call):
            for a in n.args:
                walk(a)
            if n.fn not in ("min", "max") and n.fn not in DEFAULT_REGISTRY:
                problems.append(("MONO003", n.unparse()))
        elif isinstance(n, Compare):
            walk(n.left)
            walk(n.right)
        elif isinstance(n, And):
            for p in n.parts:
                walk(p)
        elif isinstance(n, Assign):
            walk(n.expr)

    walk(node)
    return problems


def _check_expr_monotone(
    ctx: LintContext,
    report: LintReport,
    expr: Node,
    loc: SourceLocation,
    what: str,
) -> None:
    for var in sorted(variables(expr)):
        if monotonicity(expr, var) is Direction.UNKNOWN:
            report.add(
                "MONO001",
                Severity.ERROR,
                f"{what} is not provably monotone in {var}; the planner "
                "requires every specification function to be monotone in "
                "each variable it reads",
                loc,
            )


def _check_effect_degradable(
    ctx: LintContext,
    report: LintReport,
    assign: Assign,
    loc: SourceLocation,
) -> None:
    for var in sorted(variables(assign.expr)):
        if is_resource_var(var) or "." not in var:
            continue
        iface_name, prop_name = var.split(".", 1)
        iface = ctx.app.interfaces.get(iface_name)
        if iface is None:
            continue
        try:
            degradable = iface.is_degradable(prop_name)
        except Exception:
            continue
        if degradable and monotonicity(assign.expr, var) is Direction.NONINCREASING:
            report.add(
                "MONO004",
                Severity.ERROR,
                f"effect is nonincreasing in degradable property {var}: "
                "throttling the input would raise this output/consumption, "
                "so degradable matching becomes unsound (declare the "
                "property non-degradable or rewrite the effect)",
                loc,
            )


def _check_domains(
    ctx: LintContext,
    report: LintReport,
    node: Node,
    env: dict[str, Interval],
    loc: SourceLocation,
) -> None:
    for code, subexpr in _domain_problems(node, env):
        if code == "MONO002":
            msg = (
                f"divisor of `{subexpr}` can be zero over the reachable "
                "value ranges; guard the formula or bound the divisor away "
                "from zero"
            )
        else:
            msg = (
                f"`{subexpr}` calls a function with no registered profile "
                "table; register a TableFunction before planning"
            )
        report.add(code, Severity.ERROR, msg, loc)


def run(ctx: LintContext, report: LintReport) -> None:
    for comp in ctx.app.components.values():
        env = ctx.component_env(comp)
        for i, cond in enumerate(comp.conditions):
            loc = comp_loc(comp, "conditions", i, cond)
            for side in _comparison_sides(cond):
                _check_expr_monotone(ctx, report, side, loc, "condition operand")
            _check_domains(ctx, report, cond, env, loc)
        for i, assign in enumerate(comp.effects):
            loc = comp_loc(comp, "effects", i, assign)
            _check_expr_monotone(ctx, report, assign.expr, loc, "effect")
            _check_effect_degradable(ctx, report, assign, loc)
            _check_domains(ctx, report, assign, env, loc)

    for iface in ctx.app.interfaces.values():
        env = ctx.interface_env(iface)
        for i, cond in enumerate(iface.cross_conditions):
            loc = iface_loc(iface, "cross_conditions", i, cond)
            for side in _comparison_sides(cond):
                _check_expr_monotone(ctx, report, side, loc, "cross-condition operand")
            _check_domains(ctx, report, cond, env, loc)
        for i, assign in enumerate(iface.cross_effects):
            loc = iface_loc(iface, "cross_effects", i, assign)
            _check_expr_monotone(ctx, report, assign.expr, loc, "cross effect")
            _check_effect_degradable(ctx, report, assign, loc)
            _check_domains(ctx, report, assign, env, loc)
