"""Grounding and leveling: CPP specification → leveled planning actions.

This implements the compilation step of §3.1: every ``place`` / ``cross``
action template is instantiated over the network, then expanded with one
parameter per leveled variable it mentions.  Infeasible level combinations
are pruned statically:

* combinations whose conditions are existentially unsatisfiable over the
  committed level intervals (the Merger's rate-relation equality, the
  Client's bandwidth demand);
* placements whose worst-case resource consumption exceeds the node's
  total capacity (this is what makes the trivial leveling behave like the
  original greedy Sekitei — consumption is evaluated at the full static
  bound);
* crossings that merely degrade a degradable stream below their committed
  input level (the same output is reachable by committing the lower level
  directly, with no larger resource demand — the paper's "actions for
  crossing the link with the M stream with levels above 1 are pruned").

Static evaluation depends only on the level combo and the capacities of
the node or link, and networks have few distinct capacity profiles.  So
each (component or interface, level combo, capacity class) that survives
is evaluated once into a :class:`_Template` holding everything its
actions share; binding it to a node or directed edge only formats names
and looks up interned proposition sets shared by equal keys.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Iterator

from ..expr import Node as ExprNode
from ..expr import (
    Assign,
    EvalError,
    Num,
    compile_condition_satisfiable,
    compile_interval,
    variables,
)
from ..intervals import Interval
from ..model import AppSpec, ComponentSpec, InterfaceType, Leveling, LevelSpec, SpecError
from ..network import Network, ResourceScope
from ..network.resources import ResourceDecl
from .actions import (
    EffectKind,
    GroundAction,
    iface_prop_var,
    link_site,
    node_res_var,
)
from .propositions import AvailProp, PlacedProp, Prop, dominated_level_tuples

__all__ = ["Grounder", "PropTable"]

_EPS = 1e-9
_UNIT_COST = Num(1.0)

# Binding sites a template's ground variables end in: a place binds one
# site, its node (_SRC); a cross binds (src, dst, link site).
_SRC, _DST, _LINK = 0, 1, 2


class PropTable:
    """Interning table mapping propositions to dense integer ids."""

    __slots__ = ("props", "index")

    def __init__(self) -> None:
        self.props: list[Prop] = []
        self.index: dict[Prop, int] = {}

    def intern(self, prop: Prop) -> int:
        pid = self.index.get(prop)
        if pid is None:
            pid = len(self.props)
            self.props.append(prop)
            self.index[prop] = pid
        return pid

    def __len__(self) -> int:
        return len(self.props)

    def __getitem__(self, pid: int) -> Prop:
        return self.props[pid]


@dataclass(frozen=True, slots=True)
class _IfaceLevelInfo:
    """Per-interface leveling summary used throughout grounding."""

    leveled_props: tuple[str, ...]  # property names with non-trivial levels
    spec_vars: tuple[str, ...]  # matching "I.p" spec variables
    level_specs: tuple[LevelSpec, ...]
    degradable: tuple[bool, ...]
    upgradable: tuple[bool, ...]
    counts: tuple[int, ...]


@dataclass(frozen=True, slots=True)
class _Template:
    """One surviving (subject, level combo, capacity class): everything
    its ground actions hold that does not depend on their node or link.

    Every ground variable name ends in its site (see
    :func:`~repro.compile.actions.iface_prop_var`, ``node_res_var`` and
    ``link_res_var``), so a variable is stored as ``(prefix, site)`` and
    bound as ``prefix + sites[site]``.
    """

    suffix: str  # "[var=level,...]" action-name suffix, or ""
    cost_lb: float
    cost_ast: ExprNode
    committed: dict[str, Interval]  # shared by every action of the template
    var_map: tuple[tuple[str, str, int], ...]  # (spec var, prefix, site)
    seeds: tuple[tuple[str, int, Interval], ...]  # (prefix, site, interval)
    conditions: tuple[ExprNode, ...]
    effects: tuple[Assign, ...]
    targets: tuple[tuple[str, int, EffectKind], ...]  # (prefix, site, kind)
    pre: tuple[tuple[str, tuple[int, ...]], ...]  # (interface, levels) required
    # (interface, levels, implied level tuples) made available
    adds: tuple[tuple[str, tuple[int, ...], tuple[tuple[int, ...], ...]], ...]


class Grounder:
    """Grounds one (app, network, leveling) triple into leveled actions."""

    def __init__(
        self,
        app: AppSpec,
        network: Network,
        leveling: Leveling,
        bounds: dict[str, float],
        props: PropTable,
    ):
        self.app = app
        self.network = network
        self.leveling = leveling
        self.bounds = bounds
        self.props = props
        self.actions: list[GroundAction] = []
        self.templates = 0  # (subject, level combo, capacity class) templates built
        self._pre_sets: dict[tuple, frozenset[int]] = {}
        self._add_sets: dict[tuple, tuple] = {}
        self._iface_info: dict[str, _IfaceLevelInfo] = {
            name: self._build_iface_info(iface) for name, iface in app.interfaces.items()
        }
        self._validate_formulas()

    # ------------------------------------------------------------------ setup

    def _build_iface_info(self, iface: InterfaceType) -> _IfaceLevelInfo:
        leveled, svars, specs, deg, upg, counts = [], [], [], [], [], []
        for prop in iface.properties:
            var = iface.spec_var(prop.name)
            spec = self.leveling.for_var(var)
            if spec.is_trivial():
                continue
            leveled.append(prop.name)
            svars.append(var)
            specs.append(spec)
            deg.append(iface.is_degradable(prop.name))
            upg.append(prop.upgradable)
            counts.append(spec.count)
        return _IfaceLevelInfo(
            tuple(leveled), tuple(svars), tuple(specs), tuple(deg), tuple(upg), tuple(counts)
        )

    def _validate_formulas(self) -> None:
        """Compile-time restrictions beyond per-spec validation."""
        for comp in self.app.components.values():
            input_vars = self._iface_prop_vars(comp.requires)
            output_vars = self._iface_prop_vars(comp.implements)
            for cond in comp.conditions:
                bad = variables(cond) & output_vars
                if bad:
                    raise SpecError(
                        f"component {comp.name}: conditions may only reference required "
                        f"interfaces and Node.*, not outputs {sorted(bad)}"
                    )
            assigned_out: set[str] = set()
            for assign in comp.effects:
                if assign.target.primed:
                    raise SpecError(
                        f"component {comp.name}: primed targets are reserved for cross "
                        f"effects ({assign.unparse()})"
                    )
                tgt = assign.target.name
                if tgt in input_vars:
                    raise SpecError(
                        f"component {comp.name}: effects may not modify required-interface "
                        f"properties ({assign.unparse()})"
                    )
                rhs_bad = variables(assign.expr) & output_vars
                if rhs_bad:
                    raise SpecError(
                        f"component {comp.name}: effect right-hand sides may not read "
                        f"output properties {sorted(rhs_bad)}"
                    )
                if tgt in output_vars:
                    if assign.op != ":=":
                        raise SpecError(
                            f"component {comp.name}: output property {tgt} must be "
                            f"defined with ':=', not {assign.op!r}"
                        )
                    assigned_out.add(tgt)
            for iface_name in comp.implements:
                info = self._iface_info[iface_name]
                for var in info.spec_vars:
                    if var not in assigned_out:
                        raise SpecError(
                            f"component {comp.name}: leveled output property {var} is "
                            f"never assigned"
                        )
        for iface in self.app.interfaces.values():
            own_props = {iface.spec_var(p.name) for p in iface.properties}
            for assign in iface.cross_effects:
                tgt_name = assign.target.name
                if tgt_name in own_props and not assign.target.primed:
                    raise SpecError(
                        f"interface {iface.name}: cross effects on own properties must "
                        f"target the primed (post-crossing) variable ({assign.unparse()})"
                    )

    def _iface_prop_vars(self, ifaces: tuple[str, ...]) -> set[str]:
        out: set[str] = set()
        for name in ifaces:
            iface = self.app.interface(name)
            out |= {iface.spec_var(p.name) for p in iface.properties}
        return out

    # ------------------------------------------------------------------ axes

    def _input_env_and_axes(
        self, ifaces: tuple[str, ...]
    ) -> tuple[dict[str, Interval], list[tuple[str, LevelSpec, list[int], float]]]:
        """Fixed env entries for unleveled input props + axes for leveled ones."""
        env: dict[str, Interval] = {}
        axes: list[tuple[str, LevelSpec, list[int], float]] = []
        for iface_name in ifaces:
            iface = self.app.interface(iface_name)
            info = self._iface_info[iface_name]
            for prop in iface.properties:
                var = iface.spec_var(prop.name)
                bound = self.bounds.get(var, math.inf)
                if prop.name in info.leveled_props:
                    spec = self.leveling.for_var(var)
                    axes.append((var, spec, spec.feasible_indices(bound), bound))
                else:
                    env[var] = Interval.closed(0.0, bound)
        return env, axes

    def _resource_axes(
        self,
        scope: ResourceScope,
        mentioned: set[str],
        capacity_of: dict[str, float],
    ) -> tuple[dict[str, Interval], list[tuple[str, LevelSpec, list[int], float]]]:
        """Env entries / axes for node or link resources.

        ``capacity_of`` maps resource name → capacity at the concrete
        node/link being grounded.
        """
        env: dict[str, Interval] = {}
        axes: list[tuple[str, LevelSpec, list[int], float]] = []
        prefix = "Node." if scope is ResourceScope.NODE else "Link."
        decls = (
            self.app.node_resources() if scope is ResourceScope.NODE else self.app.link_resources()
        )
        for decl in decls:
            var = prefix + decl.name
            if var not in mentioned:
                continue
            cap = capacity_of.get(decl.name, 0.0)
            spec = self.leveling.for_var(var)
            if spec.is_trivial():
                env[var] = Interval.closed(0.0, cap)
            else:
                axes.append((var, spec, spec.feasible_indices(cap), cap))
        return env, axes

    @staticmethod
    def _combos(
        axes: list[tuple[str, LevelSpec, list[int], float]]
    ) -> Iterator[dict[str, tuple[int, Interval]]]:
        """All level assignments over the axes: var → (index, interval)."""
        if not axes:
            yield {}
            return
        expanded = [
            [(var, idx, spec.interval(idx, bound)) for idx in indices]
            for var, spec, indices, bound in axes
        ]
        for choice in product(*expanded):
            yield {var: (idx, iv) for var, idx, iv in choice}

    # ------------------------------------------------------------------ place

    def ground_all(self) -> list[GroundAction]:
        """Ground every place and cross action; returns the action list."""
        initial_comps = {p.component for p in self.app.initial_placements}
        for comp in self.app.components.values():
            if comp.name in initial_comps:
                continue
            self._ground_component(comp)
        for iface in self.app.interfaces.values():
            self._ground_interface(iface)
        return self.actions

    def _ground_component(
        self, comp: ComponentSpec, only_nodes: frozenset[str] | None = None
    ) -> None:
        """Ground one component; ``only_nodes`` restricts the node domain.

        The restriction (used by the delta-aware compile to re-ground
        only changed nodes) filters *after* the placeable-node
        computation, so the surviving nodes keep their canonical order
        and every emitted action is byte-equivalent to its unrestricted
        counterpart.
        """
        mentioned: set[str] = set()
        for f in comp.all_formulas():
            mentioned |= variables(f)
        candidate_nodes = [
            n.id for n in self.network.nodes.values() if n.allows(comp.name)
        ]
        nodes = self.app.placeable_nodes(comp.name, candidate_nodes)
        if only_nodes is not None:
            nodes = [n for n in nodes if n in only_nodes]

        base_env, input_axes = self._input_env_and_axes(comp.requires)

        # Static results depend only on (level combo, node capacities); most
        # networks have a handful of distinct capacity profiles, so each
        # profile's surviving combos are evaluated and templated once.
        classes: dict[tuple, list[_Template]] = {}
        for node_id in nodes:
            node = self.network.node(node_id)
            caps = {r.name: node.capacity(r.name) for r in self.app.node_resources()}
            cap_key = tuple(sorted(caps.items()))
            templates = classes.get(cap_key)
            if templates is None:
                res_env, res_axes = self._resource_axes(ResourceScope.NODE, mentioned, caps)
                templates = classes[cap_key] = []
                for combo in self._combos(input_axes + res_axes):
                    evaluated = self._evaluate_place_combo(comp, base_env, res_env, combo, caps)
                    if evaluated is not None:
                        templates.append(self._place_template(comp, combo, *evaluated))
                self.templates += len(templates)
            self._emit_place(comp, node_id, templates)

    def _evaluate_place_combo(
        self,
        comp: ComponentSpec,
        base_env: dict[str, Interval],
        res_env: dict[str, Interval],
        combo: dict[str, tuple[int, Interval]],
        caps: dict[str, float],
    ) -> tuple | None:
        """Static evaluation of one level combo; None when pruned."""
        env = dict(base_env)
        env.update(res_env)
        for var, (_idx, iv) in combo.items():
            if iv.is_empty():
                return None
            env[var] = iv

        try:
            for cond in comp.conditions:
                if not compile_condition_satisfiable(cond)(env):
                    return None
        except EvalError as exc:
            raise SpecError(f"component {comp.name}: {exc}") from exc

        derived_levels: dict[str, dict[str, int]] = {i: {} for i in comp.implements}
        out_intervals: dict[str, Interval] = {}
        for assign in comp.effects:
            tgt = assign.target.name
            rhs_iv = compile_interval(assign.expr)(env)
            if tgt.startswith("Node."):
                res_name = tgt.split(".", 1)[1]
                decl = self.app.resource(res_name)
                if assign.op == "-=" and decl.consumable:
                    cap = caps.get(res_name, 0.0)
                    if rhs_iv.hi > cap + _EPS:
                        return None  # worst-case consumption exceeds the node
            else:
                out_intervals[tgt] = rhs_iv

        for iface_name in comp.implements:
            info = self._iface_info[iface_name]
            for prop_name, var, spec in zip(info.leveled_props, info.spec_vars, info.level_specs):
                iv = out_intervals[var]
                bound = self.bounds.get(var, math.inf)
                clipped = Interval(iv.lo, min(iv.hi, bound), iv.lo_open, iv.hi_open and iv.hi <= bound)
                if clipped.is_empty():
                    return None
                derived_levels[iface_name][prop_name] = spec.classify_interval(clipped)

        cost_iv = compile_interval(comp.cost_expr())(env)
        cost_lb = max(cost_iv.lo, 0.0)
        committed = dict(env)
        return derived_levels, cost_lb, committed

    def _place_template(
        self,
        comp: ComponentSpec,
        combo: dict[str, tuple[int, Interval]],
        derived_levels: dict[str, dict[str, int]],
        cost_lb: float,
        committed: dict[str, Interval],
    ) -> _Template:
        var_map: dict[str, tuple[str, int]] = {}
        seeds: list[tuple[str, int, Interval]] = []
        pre: list[tuple[str, tuple[int, ...]]] = []
        for iface_name in comp.requires:
            iface = self.app.interface(iface_name)
            info = self._iface_info[iface_name]
            pre.append((iface_name, tuple(combo[v][0] for v in info.spec_vars)))
            for prop in iface.properties:
                var = iface.spec_var(prop.name)
                prefix = iface_prop_var(prop.name, iface_name, "")
                var_map[var] = (prefix, _SRC)
                seeds.append((prefix, _SRC, committed[var]))
        for decl in self.app.node_resources():
            var = f"Node.{decl.name}"
            if var not in committed:
                continue
            prefix = node_res_var(decl.name, "")
            var_map[var] = (prefix, _SRC)
            if var in combo:  # leveled resource: seed the availability check
                seeds.append((prefix, _SRC, _resource_seed(decl, combo[var][1])))

        targets: list[tuple[str, int, EffectKind]] = []
        for assign in comp.effects:
            tgt = assign.target.name
            if tgt.startswith("Node."):
                res_name = tgt.split(".", 1)[1]
                prefix = node_res_var(res_name, "")
                kind = _resource_kind(self.app.resource(res_name), assign)
            else:
                iface_name, prop_name = tgt.split(".", 1)
                prefix = iface_prop_var(prop_name, iface_name, "")
                kind = _produce_kind(self.app.interface(iface_name), prop_name)
            var_map.setdefault(tgt, (prefix, _SRC))
            targets.append((prefix, _SRC, kind))

        adds = []
        for iface_name in comp.implements:
            info = self._iface_info[iface_name]
            levels = tuple(derived_levels[iface_name][p] for p in info.leveled_props)
            adds.append((iface_name, levels, self._dominated(info, levels)))
        return _Template(
            suffix=_annotation(combo),
            cost_lb=cost_lb,
            cost_ast=comp.cost_expr(),
            committed=committed,
            var_map=tuple((var, prefix, site) for var, (prefix, site) in var_map.items()),
            seeds=tuple(seeds),
            conditions=comp.conditions,
            effects=tuple(comp.effects),
            targets=tuple(targets),
            pre=tuple(pre),
            adds=tuple(adds),
        )

    def _emit_place(self, comp: ComponentSpec, node_id: str, templates: list[_Template]) -> None:
        """One place action per template at ``node_id``."""
        sites = (node_id,)
        head = f"place({comp.name},{node_id})"
        placed = None
        for t in templates:
            pre_ids: set[int] = set()
            for iface_name, levels in t.pre:
                pre_ids.update(self._avail_pre(iface_name, node_id, levels))
            if placed is None:  # interned after the first preconditions, in action order
                placed = self.props.intern(PlacedProp(comp.name, node_id))
            add_ids = {placed}
            primary = [placed]
            for iface_name, levels, dominated in t.adds:
                (main,), dominated_ids, _set = self._avail_adds(
                    iface_name, node_id, levels, dominated
                )
                primary.append(main)
                add_ids.update(dominated_ids)
            self._append(
                t, head, sites, "place", comp.name, frozenset(pre_ids),
                frozenset(add_ids), tuple(primary), node=node_id,
            )

    # ------------------------------------------------------------------ cross

    def _ground_interface(
        self,
        iface: InterfaceType,
        only_links: frozenset[tuple[str, str]] | None = None,
    ) -> None:
        """Ground one interface's crossings; ``only_links`` restricts the
        edge domain to the given canonical link keys (both directions of
        each kept link, in their canonical iteration order)."""
        if not iface.cross_effects:
            return  # a non-transferable interface (e.g. a local-only service)
        mentioned: set[str] = set()
        formulas: list[ExprNode] = list(iface.cross_conditions) + list(iface.cross_effects)
        if iface.cross_cost is not None:
            formulas.append(iface.cross_cost)
        for f in formulas:
            mentioned |= variables(f)

        base_env, input_axes = self._input_env_and_axes((iface.name,))
        classes: dict[tuple, list[_Template]] = {}
        for src, dst, link in self.network.directed_edges():
            if only_links is not None and link.key not in only_links:
                continue
            caps = {r.name: link.capacity(r.name) for r in self.app.link_resources()}
            cap_key = tuple(sorted(caps.items()))
            templates = classes.get(cap_key)
            if templates is None:
                res_env, res_axes = self._resource_axes(ResourceScope.LINK, mentioned, caps)
                templates = classes[cap_key] = []
                for combo in self._combos(input_axes + res_axes):
                    evaluated = self._evaluate_cross_combo(iface, base_env, res_env, combo, caps)
                    if evaluated is not None:
                        templates.append(self._cross_template(iface, combo, *evaluated))
                self.templates += len(templates)
            self._emit_cross(iface, src, dst, templates)

    def _evaluate_cross_combo(
        self,
        iface: InterfaceType,
        base_env: dict[str, Interval],
        res_env: dict[str, Interval],
        combo: dict[str, tuple[int, Interval]],
        caps: dict[str, float],
    ) -> tuple | None:
        env = dict(base_env)
        env.update(res_env)
        for var, (_idx, iv) in combo.items():
            if iv.is_empty():
                return None
            env[var] = iv

        try:
            for cond in iface.cross_conditions:
                if not compile_condition_satisfiable(cond)(env):
                    return None
        except EvalError as exc:
            raise SpecError(f"interface {iface.name}: {exc}") from exc

        info = self._iface_info[iface.name]
        out_intervals: dict[str, Interval] = {}
        for assign in iface.cross_effects:
            tgt = assign.target.name
            rhs_iv = compile_interval(assign.expr)(env)
            if tgt.startswith("Link."):
                res_name = tgt.split(".", 1)[1]
                decl = self.app.resource(res_name)
                if assign.op == "-=" and decl.consumable:
                    cap = caps.get(res_name, 0.0)
                    if rhs_iv.lo > cap + _EPS:
                        return None  # even best-case consumption overdraws the link
            else:
                # Primed own-property target: the post-crossing value.
                out_intervals[tgt] = rhs_iv

        derived: dict[str, int] = {}
        for prop_name, var, spec in zip(info.leveled_props, info.spec_vars, info.level_specs):
            iv = out_intervals.get(var)
            if iv is None:
                # Property unchanged by crossing.
                derived[prop_name] = combo[var][0] if var in combo else 0
                continue
            bound = self.bounds.get(var, math.inf)
            clipped = Interval(iv.lo, min(iv.hi, bound), iv.lo_open, iv.hi_open and iv.hi <= bound)
            if clipped.is_empty():
                return None
            derived[prop_name] = spec.classify_interval(clipped)

        # Dominated-degradation prune: committing a high input level only to
        # deliver a lower one is subsumed by committing the lower level.
        if not iface.cross_conditions and info.leveled_props:
            inputs = [combo[v][0] for v in info.spec_vars]
            outs = [derived[p] for p in info.leveled_props]
            if all(o <= i for o, i in zip(outs, inputs)) and any(
                o < i for o, i in zip(outs, inputs)
            ):
                strict_ok = all(
                    deg
                    for o, i, deg in zip(outs, inputs, info.degradable)
                    if o < i
                )
                if strict_ok:
                    return None

        cost_expr = iface.cross_cost if iface.cross_cost is not None else _UNIT_COST
        cost_iv = compile_interval(cost_expr)(env)
        cost_lb = max(cost_iv.lo, 0.0)
        return derived, cost_lb, dict(env)

    def _cross_template(
        self,
        iface: InterfaceType,
        combo: dict[str, tuple[int, Interval]],
        derived: dict[str, int],
        cost_lb: float,
        committed: dict[str, Interval],
    ) -> _Template:
        info = self._iface_info[iface.name]
        var_map: dict[str, tuple[str, int]] = {}
        seeds: list[tuple[str, int, Interval]] = []
        for prop in iface.properties:
            var = iface.spec_var(prop.name)
            prefix = iface_prop_var(prop.name, iface.name, "")
            var_map[var] = (prefix, _SRC)
            seeds.append((prefix, _SRC, committed[var]))
        for decl in self.app.link_resources():
            var = f"Link.{decl.name}"
            if var not in committed:
                continue
            prefix = node_res_var(decl.name, "")
            var_map[var] = (prefix, _LINK)
            if var in combo:
                seeds.append((prefix, _LINK, _resource_seed(decl, combo[var][1])))

        targets: list[tuple[str, int, EffectKind]] = []
        for assign in iface.cross_effects:
            tgt = assign.target.name
            if tgt.startswith("Link."):
                res_name = tgt.split(".", 1)[1]
                prefix = node_res_var(res_name, "")
                var_map.setdefault(tgt, (prefix, _LINK))
                targets.append((prefix, _LINK, _resource_kind(self.app.resource(res_name), assign)))
            else:
                _iname, prop_name = tgt.split(".", 1)
                prefix = iface_prop_var(prop_name, iface.name, "")
                targets.append((prefix, _DST, _produce_kind(iface, prop_name)))

        in_levels = tuple(combo[v][0] for v in info.spec_vars)
        out_levels = tuple(derived[p] for p in info.leveled_props)
        return _Template(
            suffix=_annotation(combo),
            cost_lb=cost_lb,
            cost_ast=iface.cross_cost if iface.cross_cost is not None else _UNIT_COST,
            committed=committed,
            var_map=tuple((var, prefix, site) for var, (prefix, site) in var_map.items()),
            seeds=tuple(seeds),
            conditions=iface.cross_conditions,
            effects=tuple(iface.cross_effects),
            targets=tuple(targets),
            pre=((iface.name, in_levels),),
            adds=((iface.name, out_levels, self._dominated(info, out_levels)),),
        )

    def _emit_cross(
        self, iface: InterfaceType, src: str, dst: str, templates: list[_Template]
    ) -> None:
        """One cross action per template over the directed edge ``src -> dst``."""
        sites = (src, dst, link_site(src, dst))
        head = f"cross({iface.name},{src}->{dst})"
        for t in templates:
            ((iface_name, in_levels),) = t.pre
            ((_, out_levels, dominated),) = t.adds
            pre_props = self._avail_pre(iface_name, src, in_levels)  # interned first
            primary, _ids, add_props = self._avail_adds(iface_name, dst, out_levels, dominated)
            self._append(
                t, head, sites, "cross", iface_name, pre_props, add_props, primary,
                src=src, dst=dst,
            )

    # ------------------------------------------------------------------ bind

    def _append(
        self,
        t: _Template,
        head: str,
        sites: tuple[str, ...],
        kind: str,
        subject: str,
        pre_props: frozenset[int],
        add_props: frozenset[int],
        primary_adds: tuple[int, ...],
        node: str | None = None,
        src: str | None = None,
        dst: str | None = None,
    ) -> None:
        """Bind template ``t`` to ``sites``: only names are formatted here."""
        self.actions.append(
            GroundAction(
                index=len(self.actions),
                name=head + t.suffix,
                kind=kind,
                subject=subject,
                node=node,
                src=src,
                dst=dst,
                pre_props=pre_props,
                add_props=add_props,
                primary_adds=primary_adds,
                cost_lb=t.cost_lb,
                cost_ast=t.cost_ast,
                var_map={var: prefix + sites[site] for var, prefix, site in t.var_map},
                seeds=tuple([(prefix + sites[site], iv) for prefix, site, iv in t.seeds]),
                conditions=t.conditions,
                effects=t.effects,
                effect_targets=tuple(
                    [(prefix + sites[site], ekind) for prefix, site, ekind in t.targets]
                ),
                committed=t.committed,
            )
        )

    def _avail_pre(self, iface: str, node: str, levels: tuple[int, ...]) -> frozenset[int]:
        """``{avail(iface, node, levels)}``, interned and built once per key."""
        key = (iface, node, levels)
        got = self._pre_sets.get(key)
        if got is None:
            got = self._pre_sets[key] = frozenset(
                (self.props.intern(AvailProp(iface, node, levels)),)
            )
        return got

    def _avail_adds(
        self,
        iface: str,
        node: str,
        levels: tuple[int, ...],
        dominated: tuple[tuple[int, ...], ...],
    ) -> tuple[tuple[int], tuple[int, ...], frozenset[int]]:
        """Availability at ``levels`` and every level it implies, once per key.

        Returns ``((main,), ids, id_set)``: the primary add, the implied
        ids in ``dominated`` order and the same ids as the add set.
        Interning (and set insertion) follows that order, so proposition
        ids and set layouts match a per-action build exactly.
        """
        key = (iface, node, levels)
        got = self._add_sets.get(key)
        if got is None:
            intern = self.props.intern
            main = intern(AvailProp(iface, node, levels))
            ids = tuple([intern(AvailProp(iface, node, tup)) for tup in dominated])
            id_set: set[int] = set()
            for pid in ids:
                id_set.add(pid)
            got = self._add_sets[key] = ((main,), ids, frozenset(id_set))
        return got

    @staticmethod
    def _dominated(info: _IfaceLevelInfo, levels: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
        return tuple(
            dominated_level_tuples(levels, info.degradable, info.upgradable, info.counts)
        )


def _annotation(combo: dict[str, tuple[int, Interval]]) -> str:
    """The ``[var=level,...]`` action-name suffix of a level combo."""
    annot = ",".join(f"{v}={i}" for v, (i, _) in sorted(combo.items()))
    return f"[{annot}]" if annot else ""


def _resource_seed(decl: ResourceDecl, level: Interval) -> Interval:
    """Seed for a leveled resource's availability check."""
    return Interval.at_least(level.lo) if decl.degradable else level


def _resource_kind(decl: ResourceDecl, assign: Assign) -> EffectKind:
    if assign.op == "-=" and decl.consumable:
        return EffectKind.CONSUME
    return EffectKind.SET_RESOURCE


def _produce_kind(iface: InterfaceType, prop_name: str) -> EffectKind:
    if iface.is_degradable(prop_name):
        return EffectKind.PRODUCE_DEGRADABLE
    if iface.property_spec(prop_name).upgradable:
        return EffectKind.PRODUCE_UPGRADABLE
    return EffectKind.PRODUCE
