"""Compiled planning problems.

:func:`compile_problem` turns an (app, network, leveling) triple into a
:class:`CompiledProblem`: interned propositions, leveled ground actions,
the initial state (logical closure + exact resource map), and the goal
set.  This is the input to every planner phase and to the baselines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..expr import EvalError, eval_float
from ..intervals import Interval, ResourceMap
from ..model import AppSpec, Leveling, SpecError
from ..model.validation import require_valid
from ..network import Network
from .actions import GroundAction, iface_prop_var, link_res_var, node_res_var
from .bounds import compute_property_bounds
from .grounding import Grounder, PropTable
from .propositions import AvailProp, PlacedProp, dominated_level_tuples
from .reachability import logically_reachable, prune_unreachable_actions

__all__ = ["CompiledProblem", "compile_problem"]


@dataclass
class CompiledProblem:
    """A fully grounded, leveled CPP planning problem."""

    app: AppSpec
    network: Network
    leveling: Leveling
    bounds: dict[str, float]
    props: PropTable
    actions: list[GroundAction]
    achievers: dict[int, list[int]]  # prop id -> indices of actions adding it
    initial_prop_ids: frozenset[int]
    goal_prop_ids: frozenset[int]
    initial_values: dict[str, float]  # exact initial ground-variable values
    logically_solvable: bool = True  # goal reachable ignoring resources
    reachability_pruned: int = 0  # actions removed by best-value propagation
    ground_templates: int = 0  # (subject, level combo, capacity class) templates grounded
    compile_seconds: float = 0.0
    compile_source: str = "fresh"
    """How this problem came to be: ``"fresh"`` (full compilation),
    ``"cache"`` (warm-start cache hit), or ``"delta"`` (patched from a
    cached base by :func:`repro.compile.delta.patch_problem`)."""
    _initial_map_cache: ResourceMap | None = field(default=None, repr=False)

    # -- queries ---------------------------------------------------------------

    def initial_map(self) -> ResourceMap:
        """A fresh copy of the initial optimistic resource map.

        Node/link resources enter as exact points; interface properties
        produced by pre-placed components enter as their degradability
        closure (a degradable stream available at 200 is usable at any
        demand up to 200).
        """
        if self._initial_map_cache is None:
            rmap = ResourceMap()
            for gvar, value in self.initial_values.items():
                rmap.set(gvar, Interval.point(value))
            for iface_name, node_id, value, degradable, upgradable, prop_name in self._initial_streams:
                gvar = iface_prop_var(prop_name, iface_name, node_id)
                if degradable:
                    rmap.set(gvar, Interval.closed(0.0, value))
                elif upgradable:
                    rmap.set(gvar, Interval(value, math.inf, False, True))
                else:
                    rmap.set(gvar, Interval.point(value))
            self._initial_map_cache = rmap
        return self._initial_map_cache.copy()

    def fork(self) -> "CompiledProblem":
        """A copy safe to hand to mutating consumers (repair, caching).

        Deployment repair rewrites the initial state and reassigns action
        fields (costs, ``index``, ``committed``); a warm-start compile cache
        therefore never hands out its pristine instance directly.  Each
        action is cloned into one new object that shares its replay
        program, ``var_map`` and ``committed`` with the original (see
        :meth:`~repro.compile.GroundAction.clone`: those dicts are replaced,
        never edited), the containers repair mutates are shallow-copied,
        and the expensive immutable structure (interned propositions,
        ASTs) is shared.
        """
        import copy as _copy

        dup = _copy.copy(self)
        dup.actions = [a.clone() for a in self.actions]
        dup.achievers = {pid: list(idxs) for pid, idxs in self.achievers.items()}
        dup.initial_values = dict(self.initial_values)
        dup._initial_streams = list(self._initial_streams)
        dup.pruned_actions = list(self.pruned_actions)
        dup._initial_map_cache = None
        return dup

    def prop_str(self, pid: int) -> str:
        return str(self.props[pid])

    def action_count(self) -> int:
        return len(self.actions)

    def holds_initially(self, pid: int) -> bool:
        return pid in self.initial_prop_ids

    # populated by compile_problem
    _initial_streams: list[tuple[str, str, float, bool, bool, str]] = field(default_factory=list)
    pruned_actions: list[GroundAction] = field(default_factory=list, repr=False)
    """Actions removed by best-value reachability pruning (kept for
    infeasibility diagnosis)."""
    _ground_names: tuple[str, ...] = field(default=(), repr=False)
    """Action names in pre-prune grounding order.  Reachability pruning
    renumbers the kept actions, losing the original interleave of kept
    and pruned; the delta-aware compile needs that order to splice
    re-grounded groups back in at exactly the canonical positions."""
    analysis: object | None = field(default=None, repr=False)
    """Static-analysis result (:class:`repro.analysis.AnalysisResult`) when
    compiled with ``analyze=True``, else ``None``.  The result holds no
    action references, so forks share it by reference (``fork()`` keeps
    it via the shallow copy) and a cache can reuse it across forks."""


def compile_problem(
    app: AppSpec,
    network: Network,
    leveling: Leveling | None = None,
    bound_overrides: dict[str, float] | None = None,
    strict: bool = False,
    analyze: bool = False,
) -> CompiledProblem:
    """Compile a CPP instance into a leveled planning problem.

    With ``strict=True`` the spec linter (:mod:`repro.lint`) runs first
    and any error-severity finding aborts compilation with a
    :class:`SpecError` listing every diagnostic.

    With ``analyze=True`` the static-analysis pass (:mod:`repro.analysis`)
    runs over the compiled problem and its result is attached as
    ``problem.analysis`` — envelope fixpoint, certified dead actions, and
    verified symmetry hints, ready for ``PlannerConfig(static_prune=...)``.
    Analysis time is *not* counted in ``compile_seconds``.

    Raises
    ------
    SpecError
        On malformed specifications (non-source initial placements,
        unbounded properties, formula scope violations), or on lint
        errors when ``strict`` is set.
    ValueError
        When the app and network are inconsistent (unknown pinned nodes,
        undeclared resources, disconnected network).
    """
    import time

    t0 = time.perf_counter()
    if strict:
        # Lazy import: repro.lint reuses compile.bounds, so importing it at
        # module scope would cycle.  Deep reachability is disabled — it
        # would recurse into this very compilation.
        from ..lint import LintOptions, require_lint_clean

        require_lint_clean(app, network, leveling, options=LintOptions(deep=False))
    require_valid(app, network)
    if leveling is None:
        leveling = app.default_leveling()

    bounds = compute_property_bounds(app, network, bound_overrides)
    props = PropTable()
    grounder = Grounder(app, network, leveling, bounds, props)
    actions = grounder.ground_all()
    ground_names = tuple(a.name for a in actions)

    initial_ids, initial_values, initial_streams = _build_initial_state(
        app, network, leveling, props
    )

    goal_ids = frozenset(
        props.intern(PlacedProp(p.component, p.node)) for p in app.goal_placements
    )

    # Logical solvability is judged before resource-aware pruning so the
    # planner can distinguish Unsolvable from ResourceInfeasible.
    logically_solvable = logically_reachable(actions, initial_ids, goal_ids)

    stream_values = {
        iface_prop_var(prop, iface, node): value
        for iface, node, value, _deg, _upg, prop in initial_streams
    }
    actions, removed_actions = prune_unreachable_actions(actions, stream_values)

    achievers: dict[int, list[int]] = {}
    for action in actions:
        for pid in action.add_props:
            achievers.setdefault(pid, []).append(action.index)

    problem = CompiledProblem(
        app=app,
        network=network,
        leveling=leveling,
        bounds=bounds,
        props=props,
        actions=actions,
        achievers=achievers,
        initial_prop_ids=initial_ids,
        goal_prop_ids=goal_ids,
        initial_values=initial_values,
        logically_solvable=logically_solvable,
        reachability_pruned=len(removed_actions),
        ground_templates=grounder.templates,
        compile_seconds=time.perf_counter() - t0,
    )
    problem._initial_streams = initial_streams
    problem.pruned_actions = removed_actions
    problem._ground_names = ground_names
    if analyze:
        # Lazy import: repro.analysis imports this module.
        from ..analysis import analyze_problem

        problem.analysis = analyze_problem(problem)
    return problem


def _build_initial_state(
    app: AppSpec,
    network: Network,
    leveling: Leveling,
    props: PropTable,
) -> tuple[frozenset[int], dict[str, float], list]:
    """Execute the pre-placed components exactly and intern the results."""
    values: dict[str, float] = {}
    for decl in app.node_resources():
        for node in network.nodes.values():
            values[node_res_var(decl.name, node.id)] = node.capacity(decl.name)
    for decl in app.link_resources():
        for link in network.links.values():
            values[link_res_var(decl.name, link.a, link.b)] = link.capacity(decl.name)

    prop_ids: set[int] = set()
    streams: list[tuple[str, str, float, bool, bool, str]] = []

    for placement in app.initial_placements:
        comp = app.component(placement.component)
        if comp.requires:
            raise SpecError(
                f"initial placement of {comp.name} is not a source component; "
                "pre-placed components must not require interfaces"
            )
        node = network.node(placement.node)
        prop_ids.add(props.intern(PlacedProp(comp.name, placement.node)))

        env: dict[str, float] = {}
        for decl in app.node_resources():
            env[f"Node.{decl.name}"] = values[node_res_var(decl.name, node.id)]
        out_values: dict[str, float] = {}
        for assign in comp.effects:
            tgt = assign.target.name
            try:
                rhs = eval_float(assign.expr, env)
            except EvalError as exc:
                raise SpecError(f"initial placement of {comp.name}: {exc}") from exc
            if tgt.startswith("Node."):
                res_name = tgt.split(".", 1)[1]
                gvar = node_res_var(res_name, node.id)
                if assign.op == "-=":
                    values[gvar] -= rhs
                elif assign.op == "+=":
                    values[gvar] += rhs
                else:
                    values[gvar] = rhs
                if values[gvar] < -1e-9:
                    raise SpecError(
                        f"initial placement of {comp.name} on {node.id} overdraws "
                        f"{res_name} ({values[gvar]:.3f})"
                    )
            else:
                out_values[tgt] = rhs

        for iface_name in comp.implements:
            iface = app.interface(iface_name)
            leveled_props, level_idx, degr, upgr, counts = [], [], [], [], []
            for prop in iface.properties:
                var = iface.spec_var(prop.name)
                value = out_values.get(var)
                if value is None:
                    raise SpecError(
                        f"initial placement of {comp.name}: no value for {var}"
                    )
                spec = leveling.for_var(var)
                streams.append(
                    (
                        iface_name,
                        placement.node,
                        value,
                        iface.is_degradable(prop.name),
                        prop.upgradable,
                        prop.name,
                    )
                )
                if not spec.is_trivial():
                    leveled_props.append(prop.name)
                    level_idx.append(spec.classify_value(value))
                    degr.append(iface.is_degradable(prop.name))
                    upgr.append(prop.upgradable)
                    counts.append(spec.count)
            for tup in dominated_level_tuples(
                tuple(level_idx), tuple(degr), tuple(upgr), tuple(counts)
            ):
                prop_ids.add(props.intern(AvailProp(iface_name, placement.node, tup)))

    return frozenset(prop_ids), values, streams
