"""Static upper bounds on interface properties.

The trivial level of an unleveled variable is ``[0, ∞)``; evaluating
worst-case consumption at ``∞`` would prune everything.  The original
greedy Sekitei instead assumes *maximum utilization*: the most data any
source can emit.  This module computes that static bound per interface
property by a monotone fixed point over component and cross effects —
sources seed the bounds (the Server's ``M.ibw := 200``), and every
effect's outputs are re-evaluated at current input bounds until stable.

Conditions are deliberately ignored (dropping constraints can only raise
the bound, keeping it sound).  Accumulating properties (latency built up
by ``lat' := lat + Link.delay`` on every crossing) have no finite bound;
they are detected by non-convergence and given an infinite bound, which
is harmless because nothing consumes them.
"""

from __future__ import annotations

import math

from ..expr import EvalError, eval_float
from ..model import AppSpec, SpecError
from ..network import Network

__all__ = ["compute_property_bounds", "resource_capacity_bounds"]

_MAX_ITERATIONS = 100
_TOLERANCE = 1e-9


def compute_property_bounds(
    app: AppSpec,
    network: Network,
    overrides: dict[str, float] | None = None,
) -> dict[str, float]:
    """Upper bound per interface-property spec var (``"M.ibw"`` → 200.0).

    ``overrides`` forces bounds for specific variables (useful to cap an
    amplifying cycle at a known physical limit).  Non-converging variables
    become ``math.inf``.
    """
    bounds: dict[str, float] = {}
    for iface in app.interfaces.values():
        for prop in iface.properties:
            bounds[iface.spec_var(prop.name)] = 0.0
    if overrides:
        unknown = set(overrides) - set(bounds)
        if unknown:
            raise SpecError(f"bound overrides for unknown properties: {sorted(unknown)}")
        bounds.update(overrides)

    max_node_res = {
        r.name: max((n.capacity(r.name) for n in network.nodes.values()), default=0.0)
        for r in app.node_resources()
    }
    max_link_res = {
        r.name: max((lk.capacity(r.name) for lk in network.links.values()), default=0.0)
        for r in app.link_resources()
    }
    forced = set(overrides or ())

    def one_pass() -> set[str]:
        """Relax every effect once; returns the variables that grew."""
        grew: set[str] = set()
        for comp in app.components.values():
            env: dict[str, float] = {}
            for iface_name in comp.requires:
                iface = app.interface(iface_name)
                for prop in iface.properties:
                    var = iface.spec_var(prop.name)
                    env[var] = bounds[var]
            for res, cap in max_node_res.items():
                env[f"Node.{res}"] = cap
            for assign in comp.effects:
                target = assign.target.name
                if target not in bounds or target in forced:
                    continue  # resource consumption, or a forced override
                try:
                    value = eval_float(assign.expr, env)
                except EvalError as exc:
                    raise SpecError(
                        f"cannot bound {target!r}: effect of {comp.name} references "
                        f"unbounded variable ({exc})"
                    ) from exc
                if value > bounds[target] + _TOLERANCE:
                    bounds[target] = value
                    grew.add(target)
        for iface in app.interfaces.values():
            env = {
                iface.spec_var(p.name): bounds[iface.spec_var(p.name)]
                for p in iface.properties
            }
            for res, cap in max_link_res.items():
                env[f"Link.{res}"] = cap
            for assign in iface.cross_effects:
                target = assign.target.name  # prime already stripped by parser
                if target not in bounds or target in forced:
                    continue
                try:
                    value = eval_float(assign.expr, env)
                    if assign.op == "+=":
                        value = bounds[target] + value
                    elif assign.op == "-=":
                        value = bounds[target] - value
                except EvalError as exc:
                    raise SpecError(
                        f"cannot bound {target!r}: cross effect of {iface.name} "
                        f"references unbounded variable ({exc})"
                    ) from exc
                if math.isfinite(bounds[target]) and value > bounds[target] + _TOLERANCE:
                    bounds[target] = value
                    grew.add(target)
        return grew

    for _ in range(_MAX_ITERATIONS):
        grew = one_pass()
        if not grew:
            return bounds
    # Still growing after the iteration cap: these accumulate without a
    # finite bound (e.g. path latency).  Mark unbounded and settle the rest.
    for var in one_pass():
        bounds[var] = math.inf
    for _ in range(_MAX_ITERATIONS):
        if not one_pass():
            return bounds
    raise SpecError(
        "property bounds failed to converge even after marking accumulating "
        "variables unbounded; pass explicit bound overrides"
    )


def resource_capacity_bounds(app: AppSpec, network: Network) -> dict[str, float]:
    """Maximum capacity per node/link resource spec var (``"Link.lbw"``)."""
    out: dict[str, float] = {}
    for r in app.node_resources():
        out[f"Node.{r.name}"] = max(
            (n.capacity(r.name) for n in network.nodes.values()), default=0.0
        )
    for r in app.link_resources():
        out[f"Link.{r.name}"] = max(
            (lk.capacity(r.name) for lk in network.links.values()), default=0.0
        )
    return out
