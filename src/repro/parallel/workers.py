"""Module-level worker task functions for supervised worker processes.

Spawn-started workers pickle task functions *by reference*, so
everything a :class:`~repro.parallel.Supervisor` runs lives here as a
plain module-level function taking one pickleable payload dataclass and
returning one pickleable result dataclass.  Each task builds its own
:class:`~repro.obs.Telemetry` (when asked) and returns a
:class:`~repro.parallel.MetricsSnapshot`; the parent merges snapshots in
task order, so parallel runs report the same counters a serial run
would.

Compilation inside a worker goes through the worker's process-global
warm-start cache (:func:`~repro.parallel.default_compile_cache`):
repeated cells or recurring fault-campaign network states stop paying
grounding costs after first sight, and the ``cache.hit`` / ``cache.miss``
counters ride home in the snapshot.
"""

from __future__ import annotations

from contextlib import nullcontext as _noop
from dataclasses import dataclass, field, replace

from ..model import AppSpec, Leveling
from ..network import Network
from ..obs.context import TraceContext
from .envelope import MetricsSnapshot, PlanEnvelope

__all__ = [
    "CellTask",
    "CellResult",
    "run_cell_task",
    "CampaignTask",
    "CampaignResult",
    "run_campaign_task",
    "RepairTask",
    "RepairOutcome",
    "run_repair_task",
    "DomainTask",
    "DomainResult",
    "run_domain_task",
    "RungJob",
    "RungOutcome",
    "run_rung_task",
]


# -- Table 2 cells (experiments.harness fan-out) -------------------------------


@dataclass(frozen=True)
class CellTask:
    """One (network, scenario) cell of the paper's evaluation."""

    network: str
    scenario: str
    source_bw: float
    demand: float
    rg_node_budget: int
    with_metrics: bool = False
    use_cache: bool = True
    static_prune: str | None = None
    trace: TraceContext | None = None
    profile: bool = False


@dataclass(frozen=True)
class CellResult:
    """A solved cell: the row (plan stripped), its plan, worker metrics."""

    row: object  # Table2Row with plan=None and plan_names filled
    plan: PlanEnvelope | None
    metrics: MetricsSnapshot = field(default_factory=MetricsSnapshot)
    profile: bytes = b""
    """Marshal pstats blob of the whole task, when profiling was asked."""


def run_cell_task(task: CellTask) -> CellResult:
    """Solve one Table 2 cell in this worker."""
    from ..experiments.harness import run_cell
    from ..obs import Telemetry, capture_profile
    from .cache import default_compile_cache

    telemetry = Telemetry(context=task.trace) if task.with_metrics else None
    blobs: list[bytes] = []
    with capture_profile(blobs) if task.profile else _noop():
        row = run_cell(
            task.network,
            task.scenario,
            source_bw=task.source_bw,
            demand=task.demand,
            rg_node_budget=task.rg_node_budget,
            telemetry=telemetry,
            compile_cache=default_compile_cache() if task.use_cache else None,
            static_prune=task.static_prune,
        )
    envelope = PlanEnvelope.from_plan(row.plan) if row.plan is not None else None
    row.plan_names = tuple(envelope.actions) if envelope is not None else ()
    row.plan = None  # the full Plan holds the compiled problem; too big to ship
    return CellResult(
        row=row,
        plan=envelope,
        metrics=MetricsSnapshot.from_telemetry(telemetry),
        profile=blobs[0] if blobs else b"",
    )


# -- fault-campaign runs (simulate fan-out) ------------------------------------


@dataclass(frozen=True)
class CampaignTask:
    """One seeded campaign run: instance + campaign spec + seed override."""

    app: AppSpec
    network: Network
    leveling: Leveling
    spec: dict
    seed: int | None = None
    events: int | None = None
    time_limit_s: float | None = None
    include_timings: bool = False
    with_metrics: bool = False
    use_cache: bool = True
    trace: TraceContext | None = None


@dataclass(frozen=True)
class CampaignResult:
    """One campaign run's deterministic record plus worker metrics."""

    seed: int | None
    record: dict
    description: str
    metrics: MetricsSnapshot = field(default_factory=MetricsSnapshot)


def run_campaign_task(task: CampaignTask) -> CampaignResult:
    """Run one fault campaign in this worker."""
    from ..obs import Telemetry
    from ..simulate.campaign import run_campaign_run
    from .cache import default_compile_cache

    telemetry = Telemetry(context=task.trace) if task.with_metrics else None
    result = run_campaign_run(
        task.app,
        task.network,
        task.leveling,
        task.spec,
        seed=task.seed,
        events=task.events,
        time_limit_s=task.time_limit_s,
        telemetry=telemetry,
        compile_cache=default_compile_cache() if task.use_cache else None,
    )
    return CampaignResult(
        seed=task.seed,
        record=result.to_dict(include_timings=task.include_timings),
        description=result.describe(),
        metrics=MetricsSnapshot.from_telemetry(telemetry),
    )


# -- hierarchical domain subproblems (repro.hierarchy fan-out) ------------------


@dataclass(frozen=True)
class DomainTask:
    """One stub domain's concrete subproblem (docs/ALGORITHM.md).

    The payload is the fully synthetic (app, network, leveling) triple
    built by :func:`repro.hierarchy.build_domain_problem` — boundary
    contracts are baked into the sub-app, so the task is a plain flat
    solve and is byte-identical no matter which worker (or how many)
    runs it.  Compilation goes through the worker's process-global
    :class:`~repro.parallel.CompileCache`, keyed by the sub-app /
    sub-network / leveling content fingerprints: warm sweeps over the
    same topology re-ground nothing.
    """

    domain: str
    app: AppSpec
    network: Network
    leveling: Leveling | None
    rg_node_budget: int = 200_000
    time_limit_s: float | None = None
    with_metrics: bool = False
    use_cache: bool = True
    trace: TraceContext | None = None


@dataclass(frozen=True)
class DomainResult:
    """One domain solve: the sub-plan as ground-action names.

    Planning failures travel as data (``solved=False`` + the failure
    type), not as exceptions — the coordinator decides whether to fall
    back; the supervision layer only ever sees worker *crashes*.
    """

    domain: str
    solved: bool
    action_names: tuple[str, ...] = ()
    cost_lb: float = 0.0
    exact_cost: float = 0.0
    failure: str = ""
    compile_source: str = "fresh"
    metrics: MetricsSnapshot = field(default_factory=MetricsSnapshot)


def run_domain_task(task: DomainTask) -> DomainResult:
    """Solve one hierarchical domain subproblem in this worker."""
    from ..obs import Telemetry
    from ..planner import Planner, PlannerConfig, PlanningError
    from .cache import default_compile_cache

    telemetry = Telemetry(context=task.trace) if task.with_metrics else None
    config = PlannerConfig(
        leveling=task.leveling,
        rg_node_budget=task.rg_node_budget,
        time_limit_s=task.time_limit_s,
        telemetry=telemetry,
    )
    planner = Planner(config)
    try:
        if task.use_cache:
            problem = default_compile_cache().compile(
                task.app,
                task.network,
                task.leveling,
                metrics=telemetry.metrics if telemetry is not None else None,
            )
        else:
            problem = planner.compile(task.app, task.network)
        plan = planner.solve(problem=problem)
    except PlanningError as exc:
        return DomainResult(
            domain=task.domain,
            solved=False,
            failure=type(exc).__name__,
            metrics=MetricsSnapshot.from_telemetry(telemetry),
        )
    return DomainResult(
        domain=task.domain,
        solved=True,
        action_names=tuple(plan.action_names()),
        cost_lb=plan.cost_lb,
        exact_cost=plan.exact_cost,
        compile_source=problem.compile_source,
        metrics=MetricsSnapshot.from_telemetry(telemetry),
    )


# -- fleet-repair tasks (controller fan-out) -----------------------------------


@dataclass(frozen=True)
class RepairTask:
    """One fleet member's repair against the current network state.

    ``deployment_names`` is the member's running deployment as ground-
    action names (the serializable identity used by
    :func:`repro.planner.repair_by_names`) — or ``None`` when the member
    is down and needs a from-scratch deployment.
    """

    app: AppSpec
    network: Network
    leveling: Leveling
    deployment_names: tuple[str, ...] | None
    migration_cost_factor: float = 0.5
    rg_node_budget: int = 20_000
    time_limit_s: float | None = None
    use_delta: bool = False
    use_cache: bool = True
    replan_from_scratch: bool = True
    with_metrics: bool = False
    trace: TraceContext | None = None


@dataclass(frozen=True)
class RepairOutcome:
    """One repair's result: the new deployment (as names) and its costs."""

    app: str
    outcome: str
    """``"repaired"`` (prefix kept, delta planned), ``"redeployed"``
    (from-scratch solve), ``"outage"`` (planning failed or replanning
    disabled), or ``"quarantined"`` (the repair task repeatedly killed
    its worker and the supervisor pulled it from circulation)."""
    deployment_names: tuple[str, ...] = ()
    survived: int = 0
    repaired: int = 0
    repair_cost: float = 0.0
    total_cost: float = 0.0
    failure: str = ""
    compile_source: str = "fresh"
    wall_ms: float = 0.0
    metrics: MetricsSnapshot = field(default_factory=MetricsSnapshot)

    @property
    def failed(self) -> bool:
        return self.outcome in ("outage", "quarantined")


def run_repair_task(task: RepairTask) -> RepairOutcome:
    """Repair one fleet member in this worker.

    Compilation goes through the worker's process-global cache; with
    deterministic task→worker sharding the same member lands on the same
    worker every event, so that cache holds the member's *previous*
    network state — exactly what ``use_delta`` patches from.
    """
    from ..obs import Telemetry
    from ..simulate.controller import repair_member
    from .cache import default_compile_cache

    telemetry = Telemetry(context=task.trace) if task.with_metrics else None
    outcome = repair_member(
        task,
        telemetry=telemetry,
        compile_cache=default_compile_cache() if task.use_cache else None,
    )
    return replace(outcome, metrics=MetricsSnapshot.from_telemetry(telemetry))


# -- solve-ladder rungs (repro.planner.robust racing) ---------------------------


@dataclass(frozen=True)
class RungJob:
    """One racing rung: the rung record and the instance it plans."""

    rung: object  # repro.planner.robust.Rung
    app: AppSpec
    network: Network
    config: object  # PlannerConfig with telemetry stripped
    with_metrics: bool = False
    trace: TraceContext | None = None


@dataclass(frozen=True)
class RungOutcome:
    """One rung's attempt record and, when it succeeded, its plan."""

    attempt: object  # repro.planner.robust.RungAttempt
    plan: PlanEnvelope | None = None
    metrics: MetricsSnapshot = field(default_factory=MetricsSnapshot)


def run_rung_task(job: RungJob) -> RungOutcome:
    """Run one ladder rung in this worker; planner errors come back as data."""
    from ..obs import Telemetry
    from ..planner.robust import attempt_rung

    telemetry = Telemetry(context=job.trace) if job.with_metrics else None
    config = replace(job.config, telemetry=telemetry)
    plan, attempt, _error = attempt_rung(job.rung, job.app, job.network, config)
    return RungOutcome(
        attempt=attempt,
        plan=PlanEnvelope.from_plan(plan) if plan is not None else None,
        metrics=MetricsSnapshot.from_telemetry(telemetry),
    )
