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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Iterator

from ..expr import Node as ExprNode
from ..expr import (
    EvalError,
    compile_condition_satisfiable,
    compile_interval,
    variables,
)
from ..intervals import Interval
from ..model import AppSpec, ComponentSpec, InterfaceType, Leveling, LevelSpec, SpecError
from ..network import Network, ResourceScope
from .actions import (
    EffectKind,
    GroundAction,
    iface_prop_var,
    link_res_var,
    node_res_var,
)
from .propositions import AvailProp, PlacedProp, Prop, dominated_level_tuples

__all__ = ["Grounder", "PropTable"]

_EPS = 1e-9


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
        # networks have a handful of distinct capacity profiles, so memoize.
        memo: dict[tuple, tuple | None] = {}

        for node_id in nodes:
            node = self.network.node(node_id)
            caps = {r.name: node.capacity(r.name) for r in self.app.node_resources()}
            res_env, res_axes = self._resource_axes(ResourceScope.NODE, mentioned, caps)
            cap_key = tuple(sorted(caps.items()))
            for combo in self._combos(input_axes + res_axes):
                combo_key = (cap_key, tuple(sorted((v, i) for v, (i, _) in combo.items())))
                cached = memo.get(combo_key, _MISSING)
                if cached is None:
                    continue  # statically pruned for this capacity profile
                if cached is _MISSING:
                    cached = self._evaluate_place_combo(comp, base_env, res_env, combo, caps)
                    memo[combo_key] = cached
                    if cached is None:
                        continue
                derived_levels, cost_lb, committed = cached
                self._emit_place(comp, node_id, combo, derived_levels, cost_lb, committed)

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

    def _emit_place(
        self,
        comp: ComponentSpec,
        node_id: str,
        combo: dict[str, tuple[int, Interval]],
        derived_levels: dict[str, dict[str, int]],
        cost_lb: float,
        committed: dict[str, Interval],
    ) -> None:
        var_map: dict[str, str] = {}
        seeds: list[tuple[str, Interval]] = []

        pre_ids: set[int] = set()
        for iface_name in comp.requires:
            iface = self.app.interface(iface_name)
            info = self._iface_info[iface_name]
            levels = tuple(combo[v][0] for v in info.spec_vars)
            pre_ids.add(self.props.intern(AvailProp(iface_name, node_id, levels)))
            for prop in iface.properties:
                var = iface.spec_var(prop.name)
                gvar = iface_prop_var(prop.name, iface_name, node_id)
                var_map[var] = gvar
                seeds.append((gvar, committed[var]))

        for decl in self.app.node_resources():
            var = f"Node.{decl.name}"
            if var not in committed:
                continue
            gvar = node_res_var(decl.name, node_id)
            var_map[var] = gvar
            if var in combo:  # leveled resource: seed the availability check
                lo = combo[var][1].lo
                if decl.degradable:
                    seeds.append((gvar, Interval.at_least(lo)))
                else:
                    seeds.append((gvar, combo[var][1]))

        effects = []
        targets: list[tuple[str, EffectKind]] = []
        for assign in comp.effects:
            tgt = assign.target.name
            if tgt.startswith("Node."):
                res_name = tgt.split(".", 1)[1]
                decl = self.app.resource(res_name)
                gvar = node_res_var(res_name, node_id)
                var_map.setdefault(tgt, gvar)
                kind = (
                    EffectKind.CONSUME
                    if assign.op == "-=" and decl.consumable
                    else EffectKind.SET_RESOURCE
                )
            else:
                iface_name, prop_name = tgt.split(".", 1)
                iface = self.app.interface(iface_name)
                gvar = iface_prop_var(prop_name, iface_name, node_id)
                var_map.setdefault(tgt, gvar)
                if iface.is_degradable(prop_name):
                    kind = EffectKind.PRODUCE_DEGRADABLE
                elif iface.property_spec(prop_name).upgradable:
                    kind = EffectKind.PRODUCE_UPGRADABLE
                else:
                    kind = EffectKind.PRODUCE
            effects.append(assign)
            targets.append((gvar, kind))

        add_ids: set[int] = set()
        placed = self.props.intern(PlacedProp(comp.name, node_id))
        add_ids.add(placed)
        primary: list[int] = [placed]
        for iface_name in comp.implements:
            info = self._iface_info[iface_name]
            levels = tuple(derived_levels[iface_name][p] for p in info.leveled_props)
            main = self.props.intern(AvailProp(iface_name, node_id, levels))
            primary.append(main)
            for tup in dominated_level_tuples(levels, info.degradable, info.upgradable, info.counts):
                add_ids.add(self.props.intern(AvailProp(iface_name, node_id, tup)))

        annot = ",".join(f"{v}={i}" for v, (i, _) in sorted(combo.items()))
        name = f"place({comp.name},{node_id})" + (f"[{annot}]" if annot else "")
        self.actions.append(
            GroundAction(
                index=len(self.actions),
                name=name,
                kind="place",
                subject=comp.name,
                node=node_id,
                pre_props=frozenset(pre_ids),
                add_props=frozenset(add_ids),
                primary_adds=tuple(primary),
                cost_lb=cost_lb,
                cost_ast=comp.cost_expr(),
                var_map=var_map,
                seeds=tuple(seeds),
                conditions=comp.conditions,
                effects=tuple(effects),
                effect_targets=tuple(targets),
                committed=committed,
            )
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
        memo: dict[tuple, tuple | None] = {}

        for src, dst, link in self.network.directed_edges():
            if only_links is not None and link.key not in only_links:
                continue
            caps = {r.name: link.capacity(r.name) for r in self.app.link_resources()}
            res_env, res_axes = self._resource_axes(ResourceScope.LINK, mentioned, caps)
            cap_key = tuple(sorted(caps.items()))
            for combo in self._combos(input_axes + res_axes):
                combo_key = (cap_key, tuple(sorted((v, i) for v, (i, _) in combo.items())))
                cached = memo.get(combo_key, _MISSING)
                if cached is None:
                    continue
                if cached is _MISSING:
                    cached = self._evaluate_cross_combo(iface, base_env, res_env, combo, caps)
                    memo[combo_key] = cached
                    if cached is None:
                        continue
                derived_levels, cost_lb, committed = cached
                self._emit_cross(iface, src, dst, combo, derived_levels, cost_lb, committed)

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

    def _emit_cross(
        self,
        iface: InterfaceType,
        src: str,
        dst: str,
        combo: dict[str, tuple[int, Interval]],
        derived: dict[str, int],
        cost_lb: float,
        committed: dict[str, Interval],
    ) -> None:
        info = self._iface_info[iface.name]
        var_map: dict[str, str] = {}
        seeds: list[tuple[str, Interval]] = []
        for prop in iface.properties:
            var = iface.spec_var(prop.name)
            gvar = iface_prop_var(prop.name, iface.name, src)
            var_map[var] = gvar
            seeds.append((gvar, committed[var]))
        for decl in self.app.link_resources():
            var = f"Link.{decl.name}"
            if var not in committed:
                continue
            gvar = link_res_var(decl.name, src, dst)
            var_map[var] = gvar
            if var in combo:
                lo = combo[var][1].lo
                if decl.degradable:
                    seeds.append((gvar, Interval.at_least(lo)))
                else:
                    seeds.append((gvar, combo[var][1]))

        effects = []
        targets: list[tuple[str, EffectKind]] = []
        for assign in iface.cross_effects:
            tgt = assign.target.name
            if tgt.startswith("Link."):
                res_name = tgt.split(".", 1)[1]
                decl = self.app.resource(res_name)
                gvar = link_res_var(res_name, src, dst)
                var_map.setdefault(tgt, gvar)
                kind = (
                    EffectKind.CONSUME
                    if assign.op == "-=" and decl.consumable
                    else EffectKind.SET_RESOURCE
                )
            else:
                _iname, prop_name = tgt.split(".", 1)
                gvar = iface_prop_var(prop_name, iface.name, dst)
                if iface.is_degradable(prop_name):
                    kind = EffectKind.PRODUCE_DEGRADABLE
                elif iface.property_spec(prop_name).upgradable:
                    kind = EffectKind.PRODUCE_UPGRADABLE
                else:
                    kind = EffectKind.PRODUCE
            effects.append(assign)
            targets.append((gvar, kind))

        in_levels = tuple(combo[v][0] for v in info.spec_vars)
        pre = self.props.intern(AvailProp(iface.name, src, in_levels))
        out_levels = tuple(derived[p] for p in info.leveled_props)
        add_ids: set[int] = set()
        main = self.props.intern(AvailProp(iface.name, dst, out_levels))
        for tup in dominated_level_tuples(out_levels, info.degradable, info.upgradable, info.counts):
            add_ids.add(self.props.intern(AvailProp(iface.name, dst, tup)))

        annot = ",".join(f"{v}={i}" for v, (i, _) in sorted(combo.items()))
        name = f"cross({iface.name},{src}->{dst})" + (f"[{annot}]" if annot else "")
        self.actions.append(
            GroundAction(
                index=len(self.actions),
                name=name,
                kind="cross",
                subject=iface.name,
                src=src,
                dst=dst,
                pre_props=frozenset((pre,)),
                add_props=frozenset(add_ids),
                primary_adds=(main,),
                cost_lb=cost_lb,
                cost_ast=iface.cross_cost if iface.cross_cost is not None else _UNIT_COST,
                var_map=var_map,
                seeds=tuple(seeds),
                conditions=iface.cross_conditions,
                effects=tuple(effects),
                effect_targets=tuple(targets),
                committed=committed,
            )
        )


from ..expr import Num as _Num  # noqa: E402  (tiny helper import)

_UNIT_COST = _Num(1.0)
_MISSING = object()
