"""Symmetry classes of interchangeable nodes and components.

Two network nodes are *interchangeable* when swapping them is an
automorphism of the deployment problem: identical resource vectors,
labels, and software sets, no pinned/initial/goal role, and structurally
identical incident links.  Classes are found by color refinement
(1-dimensional Weisfeiler–Leman over the network graph), then each
candidate (representative, other) pair is **verified exactly** — first on
the network (neighbor sets and link signatures map under the swap), then
on the ground problem (every ground action mentioning either node has a
swap-image action with equal cost and swap-corresponding proposition
sets).  Only fully verified transpositions produce planner hints; an
unverifiable pair is silently dropped, so hints never compromise
soundness.

The classes themselves are exported as a standalone artifact (the
symmetry-breaking input a MILP/CP-SAT backend wants); the verified
per-action partner map feeds the RG's symmetry sibling prune
(:func:`repro.planner.rg.regression_search`, ``rg.prune.symmetry``).
Partner edges always point from a higher action index to a lower one, so
prune-dependency chains terminate.

Component symmetry (identical implements/requires/conditions/effects/cost
and identical pinned role) is reported for the artifact only; the planner
does not consume it yet.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..compile import AvailProp, CompiledProblem, GroundAction, PlacedProp, PropTable
from ..model import AppSpec
from ..network import Network

__all__ = [
    "PruneHints",
    "SymmetryClass",
    "SymmetryResult",
    "compute_symmetry",
    "node_color_classes",
]


@dataclass(frozen=True)
class SymmetryClass:
    """One class of mutually interchangeable elements."""

    kind: str  # "node" | "component"
    members: tuple[str, ...]  # sorted element names, len >= 2


@dataclass(frozen=True)
class PruneHints:
    """Verified symmetry data in the shape the RG consumes.

    ``partner[a2] = (a1, rep, other)`` means: swapping ``rep`` and
    ``other`` maps ground action ``a2`` onto ``a1`` (equal cost, swapped
    proposition sets) under a verified network transposition, and
    ``a1 < a2``.  ``prop_node`` / ``action_nodes`` let the RG compute the
    nodes mentioned by a search node's propositions and plan tail.
    """

    partner: dict[int, tuple[int, str, str]]
    prop_node: dict[int, str]
    action_nodes: dict[int, tuple[str, ...]]


@dataclass(frozen=True)
class SymmetryResult:
    """Symmetry artifact of one compiled problem."""

    node_classes: tuple[SymmetryClass, ...]
    component_classes: tuple[SymmetryClass, ...]
    verified_pairs: tuple[tuple[str, str], ...]
    hints: PruneHints


# -- node coloring -------------------------------------------------------------


def _node_signature(app: AppSpec, network: Network, node_id: str) -> tuple:
    node = network.node(node_id)
    software = (
        tuple(sorted(node.software)) if node.software is not None else None
    )
    roles = tuple(sorted(c for c, n in app.pinned.items() if n == node_id))
    return (
        tuple(sorted(node.resources.items())),
        tuple(sorted(node.labels)),
        software,
        roles,
    )


def _link_signature(network: Network, a: str, b: str) -> tuple:
    link = network.link(a, b)
    return (tuple(sorted(link.resources.items())), tuple(sorted(link.labels)))


def node_color_classes(app: AppSpec, network: Network) -> list[tuple[str, ...]]:
    """Color-refinement partition of the nodes (deterministic).

    Returns every stable class with at least two members, each as a
    sorted member tuple, ordered by representative.  Classes are a
    *candidate* partition — callers must verify pairs before treating
    members as interchangeable.
    """
    node_ids = sorted(network.nodes)
    signature: dict[str, tuple] = {
        nid: _node_signature(app, network, nid) for nid in node_ids
    }
    color: dict[str, int] = {}
    distinct = sorted({signature[nid] for nid in node_ids})
    palette = {sig: i for i, sig in enumerate(distinct)}
    for nid in node_ids:
        color[nid] = palette[signature[nid]]

    while True:
        refined: dict[str, tuple] = {}
        for nid in node_ids:
            incident = tuple(
                sorted(
                    (_link_signature(network, nid, nb), color[nb])
                    for nb in network.neighbors(nid)
                )
            )
            refined[nid] = (color[nid], incident)
        distinct = sorted({refined[nid] for nid in node_ids})
        if len(distinct) == len(set(color.values())):
            break
        palette2 = {sig: i for i, sig in enumerate(distinct)}
        color = {nid: palette2[refined[nid]] for nid in node_ids}

    classes: dict[int, list[str]] = {}
    for nid in node_ids:
        classes.setdefault(color[nid], []).append(nid)
    return sorted(
        tuple(sorted(members)) for members in classes.values() if len(members) >= 2
    )


def _verified_network_transposition(
    app: AppSpec, network: Network, a: str, b: str
) -> bool:
    """Exactly verify that swapping ``a`` and ``b`` fixes the network."""
    if _node_signature(app, network, a) != _node_signature(app, network, b):
        return False
    if a in app.pinned.values() or b in app.pinned.values():
        return False
    sigma = {a: b, b: a}
    for x, y in ((a, b), (b, a)):
        neighbors_x = network.neighbors(x)
        mapped = {sigma.get(n, n) for n in neighbors_x}
        if mapped != network.neighbors(y):
            return False
        for n in sorted(neighbors_x):
            if _link_signature(network, x, n) != _link_signature(
                network, y, sigma.get(n, n)
            ):
                return False
    return True


# -- ground-action verification ------------------------------------------------


def _identity_keys(actions: list[GroundAction]) -> list[tuple]:
    """Each action's kind, subject, nodes and sorted committed intervals;
    the intervals are sorted once per grounding template (its actions share
    one ``committed`` dict)."""
    by_template: dict[int, tuple] = {}
    keys: list[tuple] = []
    for action in actions:
        committed = by_template.get(id(action.committed))
        if committed is None:
            committed = by_template[id(action.committed)] = tuple(
                sorted(
                    (sv, iv.lo, iv.hi, iv.lo_open, iv.hi_open)
                    for sv, iv in action.committed.items()
                )
            )
        keys.append((action.kind, action.subject, action.node, action.src, action.dst, committed))
    return keys


def _action_nodes(action: GroundAction) -> tuple[str, ...]:
    return tuple(
        sorted({n for n in (action.node, action.src, action.dst) if n is not None})
    )


def _prop_image(props: PropTable, pid: int, sigma: dict[str, str]) -> int | None:
    """The interned id of a proposition's image under ``sigma``.

    Returns ``None`` when the image proposition does not exist (the swap
    is not a ground-problem symmetry).  Never interns new propositions.
    """
    prop = props[pid]
    if isinstance(prop, PlacedProp):
        node = sigma.get(prop.node)
        if node is None:
            return pid
        return props.index.get(PlacedProp(prop.component, node))
    if isinstance(prop, AvailProp):
        node = sigma.get(prop.node)
        if node is None:
            return pid
        return props.index.get(AvailProp(prop.interface, node, prop.levels))
    return pid  # node-free proposition kinds map to themselves


def _props_image(
    props: PropTable, pids: frozenset[int], sigma: dict[str, str]
) -> frozenset[int] | None:
    out: set[int] = set()
    for pid in pids:
        image = _prop_image(props, pid, sigma)
        if image is None:
            return None
        out.add(image)
    return frozenset(out)


def _verify_pair_actions(
    problem: CompiledProblem,
    rep: str,
    other: str,
    identity_index: dict[tuple, int],
    by_node: dict[str, list[int]],
    keys: list[tuple],
) -> dict[int, int] | None:
    """Map every action mentioning ``rep``/``other`` to its swap image.

    Returns the involution mapping, or ``None`` when any involved action
    lacks an exact image (different key, cost, or proposition sets) —
    reachability pruning or asymmetric grounding broke the symmetry.
    """
    sigma = {rep: other, other: rep}
    involved = sorted(set(by_node.get(rep, [])) | set(by_node.get(other, [])))
    mapping: dict[int, int] = {}
    for idx in involved:
        action = problem.actions[idx]
        kind, subject, node, src, dst, committed = keys[idx]
        image_idx = identity_index.get(
            (kind, subject, sigma.get(node, node), sigma.get(src, src), sigma.get(dst, dst), committed)
        )
        if image_idx is None:
            return None
        image = problem.actions[image_idx]
        if image.cost_lb != action.cost_lb:
            return None
        if _props_image(problem.props, action.pre_props, sigma) != image.pre_props:
            return None
        if _props_image(problem.props, action.add_props, sigma) != image.add_props:
            return None
        mapping[idx] = image_idx
    for idx, image_idx in mapping.items():
        if mapping.get(image_idx) != idx:
            return None
    return mapping


# -- component classes ---------------------------------------------------------


def _component_classes(app: AppSpec) -> tuple[SymmetryClass, ...]:
    groups: dict[tuple, list[str]] = {}
    for name in sorted(app.components):
        comp = app.component(name)
        sig = (
            tuple(sorted(comp.implements)),
            tuple(sorted(comp.requires)),
            tuple(c.unparse() for c in comp.conditions),
            tuple(
                (a.target.name, a.op, a.expr.unparse()) for a in comp.effects
            ),
            comp.cost.unparse() if comp.cost is not None else None,
            app.pinned.get(name),
        )
        groups.setdefault(sig, []).append(name)
    return tuple(
        SymmetryClass(kind="component", members=tuple(sorted(members)))
        for _sig, members in sorted(groups.items())
        if len(members) >= 2
    )


# -- entry point ---------------------------------------------------------------


def compute_symmetry(problem: CompiledProblem) -> SymmetryResult:
    """Compute node/component classes and verified planner prune hints."""
    app, network = problem.app, problem.network
    candidate_classes = node_color_classes(app, network)

    keys = _identity_keys(problem.actions)
    action_nodes = {action.index: _action_nodes(action) for action in problem.actions}
    identity_index: dict[tuple, int] = {}
    ambiguous: set[tuple] = set()
    by_node: dict[str, list[int]] = {}
    for action, key in zip(problem.actions, keys):
        if key in identity_index:
            ambiguous.add(key)
        identity_index[key] = action.index
        for node in action_nodes[action.index]:
            by_node.setdefault(node, []).append(action.index)
    for key in ambiguous:  # a non-unique key cannot anchor a verified image
        del identity_index[key]

    partner: dict[int, tuple[int, str, str]] = {}
    verified_pairs: list[tuple[str, str]] = []
    node_classes: list[SymmetryClass] = []
    for members in candidate_classes:
        rep = members[0]
        verified_members = [rep]
        for other in members[1:]:
            if not _verified_network_transposition(app, network, rep, other):
                continue
            mapping = _verify_pair_actions(
                problem, rep, other, identity_index, by_node, keys
            )
            if mapping is None:
                continue
            verified_pairs.append((rep, other))
            verified_members.append(other)
            for idx, image_idx in sorted(mapping.items()):
                if image_idx < idx and idx not in partner:
                    partner[idx] = (image_idx, rep, other)
        if len(verified_members) >= 2:
            node_classes.append(
                SymmetryClass(kind="node", members=tuple(sorted(verified_members)))
            )

    prop_node: dict[int, str] = {}
    for pid in range(len(problem.props)):
        node = getattr(problem.props[pid], "node", None)
        if node is not None:
            prop_node[pid] = node

    return SymmetryResult(
        node_classes=tuple(node_classes),
        component_classes=_component_classes(app),
        verified_pairs=tuple(verified_pairs),
        hints=PruneHints(
            partner=partner, prop_node=prop_node, action_nodes=action_nodes
        ),
    )
