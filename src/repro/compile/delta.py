"""Delta-aware compilation: patch a compiled problem across a network diff.

Fault campaigns and fleet controllers recompile the *same* application
against a stream of slightly different networks — one link degraded, one
node's CPU jittered, one link failed and later recovered.  A full
compilation re-grounds every (component × node) and (interface × edge)
group even though a single-element event touches a handful of them.

:func:`patch_problem` instead starts from a previously compiled base
problem and

1. re-grounds **only** the groups whose network element changed (a
   restricted :class:`~repro.compile.grounding.Grounder` sharing the
   base's proposition table);
2. splices the kept base groups and the fresh groups back together in
   canonical grounding order (components in app order × nodes in network
   order, then interfaces × directed edges), using the base's recorded
   pre-prune order to restore the exact interleave;
3. rebuilds the initial state exactly and re-runs the global
   reachability analyses (logical solvability and best-value pruning)
   over the spliced action set.

The result is *equivalent* to a fresh :func:`~repro.compile.compile_problem`
of the same triple: identical ground actions — same names, same order,
same committed intervals, costs, and replay programs — and identical
initial/goal state, differing only in proposition-id numbering (ids are
interned into the shared base table and never serialized).  Step 3 is
what keeps the patch *sound* rather than merely fast: property bounds
and best-value pruning are global fixpoints, so the patch verifies the
bounds are unchanged (else it refuses) and re-runs the cheap pruning
fixpoint rather than trusting the base's.

``patch_problem`` returns ``None`` whenever it cannot certify
equivalence — an unpatchable delta (node set, labels, software), or
property bounds that shifted with the network's capacity maxima — and
the caller (:meth:`repro.parallel.CompileCache.compile_delta`) falls
back to a full compilation.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING

from ..model.validation import require_valid
from .actions import GroundAction, iface_prop_var
from .bounds import compute_property_bounds
from .grounding import Grounder
from .problem import CompiledProblem, _build_initial_state
from .propositions import PlacedProp
from .reachability import logically_reachable, prune_unreachable_actions

if TYPE_CHECKING:  # pragma: no cover - typing only; avoids a package cycle
    from ..network import Network
    from ..parallel.fingerprint import NetworkDelta

__all__ = ["patch_problem"]


def _group_key(action: GroundAction) -> tuple:
    """The (kind, subject, location) group an action was emitted under."""
    if action.kind == "place":
        return ("place", action.subject, action.node)
    return ("cross", action.subject, action.src, action.dst)


def patch_problem(
    base: CompiledProblem,
    network: "Network",
    delta: "NetworkDelta",
    bound_overrides: dict[str, float] | None = None,
) -> CompiledProblem | None:
    """Compile ``base``'s app against ``network`` by patching, not re-grounding.

    ``base`` must be a mutation-safe copy (a :meth:`CompiledProblem.fork`
    — its kept actions are consumed into the patched problem and
    renumbered in place) compiled from the same app and leveling with
    the same ``bound_overrides``.  ``delta`` is the structured diff from
    ``base.network`` to ``network``
    (:func:`repro.parallel.fingerprint.network_delta`).

    Returns the patched problem, or ``None`` when equivalence cannot be
    certified (unpatchable delta, missing pre-prune order on the base,
    or changed property bounds) — the caller should fall back to a full
    compilation.

    Raises
    ------
    ValueError
        When the (app, network) pair is invalid — exactly as
        :func:`~repro.compile.compile_problem` would (e.g. the event
        partitioned the network).
    """
    t0 = time.perf_counter()
    if not delta.patchable or not base._ground_names:
        return None
    app, leveling = base.app, base.leveling

    require_valid(app, network)

    bounds = compute_property_bounds(app, network, bound_overrides)
    if bounds != base.bounds:
        # A capacity change moved a global property bound: level
        # feasibility (and thus every committed interval) may differ
        # everywhere, not just at the changed element.
        return None

    changed_nodes = frozenset(delta.changed_nodes)
    touched_links = delta.touched_links()

    # Re-ground only the touched groups, interning into the shared table
    # (interning is append-only, so base ids stay stable).
    props = base.props
    grounder = Grounder(app, network, leveling, bounds, props)
    initial_comps = {p.component for p in app.initial_placements}
    if changed_nodes:
        for comp in app.components.values():
            if comp.name in initial_comps:
                continue
            grounder._ground_component(comp, only_nodes=changed_nodes)
    if touched_links:
        for iface in app.interfaces.values():
            grounder._ground_interface(iface, only_links=touched_links)

    fresh_groups: dict[tuple, list[GroundAction]] = {}
    for action in grounder.actions:
        fresh_groups.setdefault(_group_key(action), []).append(action)

    # Base actions in their original pre-prune order (pruning renumbered
    # the kept ones; pruned ones are cloned because a fork shares them
    # with the pristine cache entry).
    order = {name: i for i, name in enumerate(base._ground_names)}
    base_all = list(base.actions) + [a.clone() for a in base.pruned_actions]
    base_all.sort(key=lambda a: order[a.name])
    base_groups: dict[tuple, list[GroundAction]] = {}
    for action in base_all:
        base_groups.setdefault(_group_key(action), []).append(action)

    # Splice in canonical grounding order over the *new* network.
    spliced: list[GroundAction] = []
    for comp in app.components.values():
        if comp.name in initial_comps:
            continue
        candidate_nodes = [
            n.id for n in network.nodes.values() if n.allows(comp.name)
        ]
        for node_id in app.placeable_nodes(comp.name, candidate_nodes):
            groups = fresh_groups if node_id in changed_nodes else base_groups
            spliced.extend(groups.get(("place", comp.name, node_id), ()))
    for iface in app.interfaces.values():
        if not iface.cross_effects:
            continue
        for src, dst, link in network.directed_edges():
            groups = fresh_groups if link.key in touched_links else base_groups
            spliced.extend(groups.get(("cross", iface.name, src, dst), ()))

    for index, action in enumerate(spliced):
        action.index = index
    ground_names = tuple(a.name for a in spliced)

    initial_ids, initial_values, initial_streams = _build_initial_state(
        app, network, leveling, props
    )
    goal_ids = frozenset(
        props.intern(PlacedProp(p.component, p.node)) for p in app.goal_placements
    )
    logically_solvable = logically_reachable(spliced, initial_ids, goal_ids)

    stream_values = {
        iface_prop_var(prop, iface, node): value
        for iface, node, value, _deg, _upg, prop in initial_streams
    }
    actions, removed_actions = prune_unreachable_actions(spliced, stream_values)

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
        compile_source="delta",
    )
    problem._initial_streams = initial_streams
    problem.pruned_actions = removed_actions
    problem._ground_names = ground_names
    return problem
