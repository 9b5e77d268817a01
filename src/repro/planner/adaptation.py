"""Deployment repair and adaptation (paper §6, future work).

The paper closes by proposing to "use our planner for repairing and
adapting existing deployments by introducing operators for migrating and
reconnecting components", noting that "separate operators are necessary,
because the cost of migration differs from that of the initial
deployment".  This module implements that extension:

1. A finished plan (plus its problem) defines a :class:`Deployment`.
2. When the environment changes (links degrade, nodes lose CPU), the old
   plan is re-executed forward against the new network in a *single*
   checkpointed pass (:class:`~repro.planner.executor.PlanExecutor`); the
   longest exactly-executing prefix survives, and its placements and
   streams are folded into the repair problem's initial state
   (:func:`~repro.planner.delta.fold_prefix`).
3. The repair problem is compiled against the new network — or, with
   ``use_delta=True`` and a compile cache, *patched* from the cached
   previous network state (:meth:`repro.parallel.CompileCache.compile_delta`)
   so only ground actions touching changed elements are re-grounded.
   Components that were running in the surviving prefix get
   **migration-discounted** placement actions elsewhere (the component
   image is already staged, so redeployment costs
   ``migration_cost_factor`` times the normal cost), while brand-new
   components pay full price.
4. The ordinary leveled planner then completes the deployment; the repair
   plan contains only the delta actions.  The stitched deployment
   (prefix + delta) is re-validated exactly on an undiscounted
   compilation, and its exact total cost is reported as
   :attr:`RepairResult.total_cost`.

The repair core is **name-based** (:func:`repair_by_names`): a deployment
is identified by its ground-action names, which serialize and ship to
worker processes, so the fleet controller
(:mod:`repro.simulate.controller`) fans repairs out without pickling
compiled problems.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..compile import CompiledProblem, GroundAction, compile_problem
from ..model import AppSpec, Leveling
from ..network import Network
from .delta import fold_prefix, placements_of_names, stitch_plan
from .executor import PlanExecutor
from .plan import Plan
from .planner import Planner, PlannerConfig

__all__ = [
    "Deployment",
    "RepairResult",
    "surviving_prefix",
    "repair_deployment",
    "repair_by_names",
]


@dataclass
class Deployment:
    """A running deployment: the plan that created it and its problem."""

    problem: CompiledProblem
    actions: list[GroundAction]

    @staticmethod
    def from_plan(plan: Plan) -> "Deployment":
        return Deployment(problem=plan.problem, actions=list(plan.actions))

    def placements(self) -> list[tuple[str, str]]:
        return [(a.subject, a.node) for a in self.actions if a.kind == "place"]

    def action_names(self) -> list[str]:
        """The serializable identity of this deployment (ground-action
        names are unique within a compiled problem and stable across
        recompilations of the same triple)."""
        return [a.name for a in self.actions]


@dataclass
class RepairResult:
    """Outcome of a repair: the surviving prefix and the delta plan."""

    surviving_actions: list[GroundAction]
    repair_plan: Plan
    migrated_components: list[str] = field(default_factory=list)
    """Components the repair actually moved: placed by the repair plan on
    a *different* node than they occupied in the broken deployment."""
    discounted_components: list[str] = field(default_factory=list)
    """Components whose placement actions were migration-discounted —
    everything still running in the surviving prefix (their images are
    staged, so re-placing them anywhere is cheap), whether or not the
    planner ended up moving them."""
    total_cost: float = 0.0
    """Exact cost of the stitched deployment (surviving prefix + repair
    delta), measured by re-executing the combined sequence on an
    undiscounted compilation.  This is what the deployment actually
    costs; ``repair_plan.exact_cost`` alone is the delta under the
    migration discount."""
    compile_source: str = "fresh"
    """How the repair problem was obtained: ``"fresh"`` (full
    compilation), ``"cache"`` (warm-start hit), or ``"delta"``
    (patched across a network diff)."""

    def combined_actions(self) -> list[GroundAction]:
        """Surviving prefix followed by the repair delta."""
        return self.surviving_actions + list(self.repair_plan.actions)

    def to_dict(self) -> dict:
        """JSON-ready record of the repair outcome.

        Deliberately excludes ``compile_source``: the record captures
        *what* was deployed at what cost, which is identical whether the
        problem was compiled fresh, from cache, or by delta patching —
        the determinism audits diff exactly this.
        """
        return {
            "surviving": [a.name for a in self.surviving_actions],
            "repair": [a.name for a in self.repair_plan.actions],
            "migrated_components": list(self.migrated_components),
            "discounted_components": list(self.discounted_components),
            "repair_cost": self.repair_plan.exact_cost,
            "total_cost": self.total_cost,
        }

    def describe(self) -> str:
        lines = [f"surviving prefix: {len(self.surviving_actions)} actions"]
        for a in self.surviving_actions:
            lines.append(f"  (kept) {a.name}")
        lines.append(self.repair_plan.describe())
        return "\n".join(lines)


def surviving_prefix(
    deployment: Deployment, new_problem: CompiledProblem
) -> list[GroundAction]:
    """Longest prefix of the old plan that still executes exactly.

    Each old action is re-resolved by name in the new compiled problem (the
    same (subject, location, levels) may compile to different bounds under
    the changed network); an action that no longer exists or whose
    execution now fails truncates the prefix.  One incremental forward
    pass (:class:`PlanExecutor`) — the n-th probe extends the checkpointed
    state of the first n-1 rather than re-executing them.
    """
    prefix, _executor = _surviving_prefix(
        [a.name for a in deployment.actions], new_problem
    )
    return prefix


def _surviving_prefix(
    names: Sequence[str], new_problem: CompiledProblem
) -> tuple[list[GroundAction], PlanExecutor]:
    """The prefix plus the executor holding its exact post-state."""
    by_name = {a.name: a for a in new_problem.actions}
    executor = PlanExecutor(new_problem)
    prefix: list[GroundAction] = []
    for name in names:
        new_action = by_name.get(name)
        if new_action is None or not executor.try_step(new_action):
            break
        prefix.append(new_action)
    return prefix, executor


def repair_deployment(
    app: AppSpec,
    new_network: Network,
    deployment: Deployment,
    leveling: Leveling | None = None,
    migration_cost_factor: float = 0.5,
    planner_config: PlannerConfig | None = None,
    compile_cache=None,
    use_delta: bool = False,
) -> RepairResult:
    """Repair ``deployment`` against a changed network.

    Parameters
    ----------
    migration_cost_factor:
        Multiplier on the placement-cost lower bound for components that
        were already running in the surviving prefix (their images are
        staged; re-placing them elsewhere is a migration, not a fresh
        deployment).  ``1.0`` disables the discount; ``0.0`` makes
        migrations logically free (their cost formula still applies at
        execution time).
    compile_cache:
        Optional :class:`repro.parallel.CompileCache`.  A repair compiles
        the same (app, network, leveling) key *twice* — the repair
        problem (then mutated with the surviving prefix) and the fresh
        problem validating the stitched deployment — so even a cold cache
        saves one full compilation per call, and repeated repairs against
        a recurring network state save both.
    use_delta:
        With a ``compile_cache``, compile the repair problem via
        :meth:`~repro.parallel.CompileCache.compile_delta`: when the
        cache holds the *previous* network state of this app, only the
        ground actions touching changed elements are re-ground and the
        rest are reused from the cached base.  Semantically transparent
        (the patched problem is equivalent to a fresh compilation);
        ignored without a cache.

    Returns
    -------
    RepairResult
        With the surviving prefix and a delta plan that completes the
        deployment.  The combined action sequence is re-validated exactly
        and its exact cost reported as ``total_cost``.
    """
    return repair_by_names(
        app,
        new_network,
        [a.name for a in deployment.actions],
        leveling=leveling,
        migration_cost_factor=migration_cost_factor,
        planner_config=planner_config,
        compile_cache=compile_cache,
        use_delta=use_delta,
    )


def repair_by_names(
    app: AppSpec,
    new_network: Network,
    deployment_names: Sequence[str],
    leveling: Leveling | None = None,
    migration_cost_factor: float = 0.5,
    planner_config: PlannerConfig | None = None,
    compile_cache=None,
    use_delta: bool = False,
) -> RepairResult:
    """:func:`repair_deployment` with the deployment given by action names.

    The name-based core: ground-action names are unique and stable
    across recompilations of the same triple, so a deployment serializes
    as its name sequence — this is what worker processes receive.
    """
    if not 0.0 <= migration_cost_factor:
        raise ValueError("migration_cost_factor must be nonnegative")

    config = planner_config or PlannerConfig(leveling=leveling)
    if leveling is not None:
        config.leveling = leveling
    metrics = config.telemetry.metrics if config.telemetry is not None else None

    def _compile() -> CompiledProblem:
        if compile_cache is None:
            return compile_problem(app, new_network, config.leveling)
        if use_delta:
            return compile_cache.compile_delta(
                app, new_network, config.leveling, metrics=metrics
            )
        return compile_cache.compile(
            app, new_network, config.leveling, metrics=metrics
        )

    new_problem = _compile()
    compile_source = new_problem.compile_source

    # One checkpointed forward pass discovers the surviving prefix; its
    # exact post-state report seeds the fold (no re-execution).
    prefix, executor = _surviving_prefix(deployment_names, new_problem)
    fold_prefix(new_problem, app, prefix, executor.report())

    # Migration discount: components already running somewhere get cheaper
    # placement actions elsewhere.
    running = {a.subject for a in prefix if a.kind == "place"}
    discounted = sorted(running)
    if migration_cost_factor != 1.0:
        for action in new_problem.actions:
            if action.kind == "place" and action.subject in running:
                action.cost_lb *= migration_cost_factor

    planner = Planner(config)
    repair_plan = planner.solve(problem=new_problem)

    # A component migrated iff the repair re-placed it on a different node
    # than it occupied in the broken deployment (last placement wins on
    # both sides).  Components placed for the first time, or re-placed on
    # their old node, did not migrate.
    old_placements = placements_of_names(list(deployment_names))
    new_placed = {
        a.subject: a.node for a in repair_plan.actions if a.kind == "place"
    }
    migrated = sorted(
        comp
        for comp, node in new_placed.items()
        if old_placements.get(comp) not in (None, node)
    )

    # Final validation of the stitched deployment on an undiscounted
    # compilation (a cache hit here — the repair problem above stored the
    # same key), yielding the exact total cost including the prefix.
    fresh = _compile()
    stitched = stitch_plan(
        fresh,
        [a.name for a in prefix],
        [a.name for a in repair_plan.actions],
    )

    return RepairResult(
        surviving_actions=prefix,
        repair_plan=repair_plan,
        migrated_components=migrated,
        discounted_components=discounted,
        total_cost=stitched.total_cost,
        compile_source=compile_source,
    )
