"""Level-soundness verification.

Level cutpoints partition ``[0, ∞)``, so a :class:`LevelSpec` can never
have literal gaps or overlaps — what *can* go wrong is the pairing of
cutpoints with the values effects actually produce.  Using the compiler's
static bounds (``compile/bounds.py``) this pass checks:

* ``LVL001`` — the leveling maps a variable the spec does not define
  (almost always a typo; the cutpoints would be silently ignored);
* ``LVL002`` — a cutpoint above the variable's static upper bound: the
  levels above it can never be occupied, leaving a dead gap between the
  declared partition and the attainable values;
* ``LVL003`` — an effect whose image includes negative values, which fall
  below every level (levels cover ``[0, ∞)`` only);
* ``LVL004`` — cutpoint misalignment: an effect maps a cutpoint of a
  leveled input strictly between two cutpoints of its leveled output, so
  level-boundary inputs land mid-level and the committed intervals lose
  precision (the paper keeps downstream cutpoints proportional to
  upstream ones for exactly this reason).
"""

from __future__ import annotations

import math

from ..compile.actions import is_resource_var
from ..expr import variables
from ..expr.ast_nodes import Assign
from ..expr.errors import EvalError
from ..expr.evaluator import eval_interval
from ..intervals import Interval
from .context import LintContext, comp_loc, iface_loc
from .diagnostics import LintReport, Severity, SourceLocation

__all__ = ["run"]

_REL_TOL = 1e-6


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= _REL_TOL * max(1.0, abs(a), abs(b))


def _check_leveling(ctx: LintContext, report: LintReport) -> None:
    known = ctx.known_spec_vars()
    for var, spec in sorted(ctx.leveling.specs.items()):
        loc = SourceLocation("leveling", var)
        if var not in known:
            report.add(
                "LVL001",
                Severity.WARNING,
                f"leveling maps unknown variable {var!r}; the spec declares "
                "no such interface property or resource, so these cutpoints "
                "are ignored",
                loc,
            )
            continue
        rng = ctx.var_range(var)
        bound = rng.hi
        if not math.isfinite(bound):
            continue
        dead = [c for c in spec.cutpoints if c > bound * (1 + _REL_TOL)]
        if dead:
            report.add(
                "LVL002",
                Severity.WARNING,
                f"cutpoint(s) {dead} of {var} exceed its static upper bound "
                f"{bound:g}: the levels above the bound can never be "
                "occupied (dead gap between declared levels and attainable "
                "values)",
                loc,
            )


def _check_effect_image(
    ctx: LintContext,
    report: LintReport,
    assign: Assign,
    env: dict[str, Interval],
    loc: SourceLocation,
) -> None:
    target = assign.target.name
    if is_resource_var(target) or assign.op != ":=":
        return
    try:
        image = eval_interval(assign.expr, env)
    except EvalError:
        return  # the monotonicity pass reports the domain problem
    if image.is_empty():
        return
    if image.lo < -1e-9:
        report.add(
            "LVL003",
            Severity.ERROR,
            f"effect image {image} includes negative values, which fall "
            f"below every level of {target} (levels cover [0, ∞) only)",
            loc,
        )

    out_spec = ctx.leveling.for_var(target)
    if out_spec.is_trivial():
        return
    for var in sorted(variables(assign.expr)):
        in_spec = ctx.leveling.for_var(var)
        if in_spec.is_trivial():
            continue
        in_bound = ctx.var_range(var).hi
        for cut in in_spec.cutpoints:
            if cut > in_bound * (1 + _REL_TOL):
                continue  # dead cutpoint, reported by LVL002
            point_env = dict(env)
            point_env[var] = Interval.point(cut)
            try:
                img = eval_interval(assign.expr, point_env)
            except EvalError:
                continue
            if not img.is_point():
                continue  # image depends on other variables too
            value = img.lo
            if value <= 1e-9:
                continue
            if not any(_close(value, c) for c in out_spec.cutpoints):
                report.add(
                    "LVL004",
                    Severity.WARNING,
                    f"effect maps the {var} cutpoint {cut:g} to {value:g}, "
                    f"which is not a cutpoint of {target} "
                    f"{out_spec.cutpoints}: level-boundary inputs land "
                    "mid-level and the committed intervals lose precision "
                    "(keep downstream cutpoints proportional)",
                    loc,
                )


def run(ctx: LintContext, report: LintReport) -> None:
    _check_leveling(ctx, report)

    for comp in ctx.app.components.values():
        env = ctx.component_env(comp)
        for i, assign in enumerate(comp.effects):
            _check_effect_image(
                ctx, report, assign, env, comp_loc(comp, "effects", i, assign)
            )
    for iface in ctx.app.interfaces.values():
        env = ctx.interface_env(iface)
        for i, assign in enumerate(iface.cross_effects):
            _check_effect_image(
                ctx, report, assign, env, iface_loc(iface, "cross_effects", i, assign)
            )
