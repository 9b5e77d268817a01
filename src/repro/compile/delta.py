"""Delta-aware compilation: patch a compiled problem across a network diff.

Fault campaigns and fleet controllers recompile the *same* application
against a stream of slightly different networks — one link degraded, one
node's CPU jittered, one link failed and later recovered.  A full
compilation re-grounds every (component × node) and (interface × edge)
group even though a single-element event touches a handful of them.

:func:`patch_problem` is an ordinary compile that reuses a previously
compiled base problem's untouched groups:

1. it groups the base's actions by the (kind, subject, location) they
   were emitted under, in the base's recorded pre-prune order;
2. it runs the grounder's one canonical walk
   (:meth:`~repro.compile.grounding.Grounder.walk`) over the new
   network, sharing the base's proposition table: each untouched group
   is handed back from the base and renumbered in place, and only the
   groups whose node or link changed are grounded afresh;
3. it assembles the problem exactly as
   :func:`~repro.compile.compile_problem` does (initial state, goal, and
   the global reachability analyses: logical solvability and
   best-value pruning).

The result is *equivalent* to a fresh :func:`~repro.compile.compile_problem`
of the same triple: identical ground actions (same names, same order,
same committed intervals, costs, and replay programs) and identical
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

from typing import TYPE_CHECKING

from ..model.validation import require_valid
from ..obs import timed
from .actions import GroundAction
from .bounds import compute_property_bounds
from .grounding import Grounder, group_key
from .problem import CompiledProblem, assemble_problem

if TYPE_CHECKING:  # pragma: no cover - typing only; avoids a package cycle
    from ..network import Network
    from ..parallel.fingerprint import NetworkDelta

__all__ = ["patch_problem"]


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
    with timed("compile.delta") as clock:
        if not delta.patchable or not base._ground_names:
            return None
        app = base.app

        require_valid(app, network)

        bounds = compute_property_bounds(app, network, bound_overrides)
        if bounds != base.bounds:
            # A capacity change moved a global property bound: level
            # feasibility (and thus every committed interval) may differ
            # everywhere, not just at the changed element.
            return None

        # Base actions in their original pre-prune order (pruning renumbered
        # the kept ones; pruned ones are cloned because a fork shares them
        # with the pristine cache entry), grouped as the walk emits them.
        order = {name: i for i, name in enumerate(base._ground_names)}
        base_all = list(base.actions) + [a.clone() for a in base.pruned_actions]
        base_all.sort(key=lambda a: order[a.name])
        base_groups: dict[tuple, list[GroundAction]] = {}
        for action in base_all:
            base_groups.setdefault(group_key(action), []).append(action)

        # A group is touched when its node changed or its link (either
        # direction) changed or appeared; a removed link's groups are simply
        # never asked for.
        touched = {(node,) for node in delta.changed_nodes}
        for a, b in delta.touched_links():
            touched.update(((a, b), (b, a)))

        def supplied(key: tuple) -> list[GroundAction] | None:
            return None if key[2:] in touched else base_groups.get(key, [])

        # Interning into the base's table is append-only, so its ids stay
        # stable and the reused groups' propositions stay valid.
        grounder = Grounder(app, network, base.leveling, bounds, base.props)
        grounder.walk(supplied)
        problem = assemble_problem(grounder, compile_source="delta")
    problem.compile_seconds = clock.duration_s
    return problem
