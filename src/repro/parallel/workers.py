"""One batch fan-out, and the task kinds it runs.

:func:`run_tasks` is how every batch of planner work runs — the
Table-2 sweep, fault campaigns, the fleet controller's repair batches
and hierarchical domain solves.  A batch that needs one worker runs
inline, in task order, recording into the caller's telemetry and
compiling through the caller's cache; any other batch runs under a
:class:`~repro.parallel.Supervisor` inside the caller's dispatch span.

Every task kind has one *core*, ``fn(task, *, telemetry=None,
compile_cache=None)``, taking one pickleable payload dataclass and
returning one pickleable result dataclass with a ``metrics`` field.  In
a worker the core runs through :func:`_in_worker`, which builds the
task's own :class:`~repro.obs.Telemetry` when the task asks for metrics,
compiles through the worker's process-global warm-start cache
(:func:`~repro.parallel.default_compile_cache`) and ships the
telemetry home as a :class:`~repro.parallel.MetricsSnapshot`; the parent
stitches and merges snapshots in task order, so a fanned-out batch
reports the same counters an inline one does.  Spawn-started workers
pickle task functions *by reference*, so cores and payloads live at
module level.

The solve ladder's racing rungs (:class:`RungJob`, :func:`run_rung_task`)
are the one task kind not run here: a race starts by priority, cancels
its losers and keeps only the winner's snapshot
(:meth:`~repro.parallel.Supervisor.race`).
"""

from __future__ import annotations

import os
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Sequence

from ..model import AppSpec, Leveling
from ..network import Network
from ..obs import Telemetry, make_frame, maybe_span, task_label
from ..obs.context import TraceContext
from .envelope import MetricsSnapshot, PlanEnvelope
from .supervisor import SupervisionReport, Supervisor, TaskFailed, resolve_workers

__all__ = [
    "run_tasks",
    "CellTask",
    "CellResult",
    "run_cell_task",
    "CampaignTask",
    "CampaignResult",
    "run_campaign_task",
    "RepairTask",
    "RepairOutcome",
    "DomainTask",
    "DomainResult",
    "run_domain_task",
    "RungJob",
    "RungOutcome",
    "run_rung_task",
]


def run_tasks(
    fn: Callable,
    tasks: Sequence,
    *,
    workers: int = 1,
    telemetry: Telemetry | None = None,
    compile_cache=None,
    span: str,
    pool: Supervisor | None = None,
    on_frame: Callable[[int, dict], None] | None = None,
    stream_interval_s: float | None = None,
    on_result: Callable[[int, object], None] | None = None,
    inject_kill: Sequence[int] = (),
) -> SupervisionReport:
    """Run the core ``fn`` over ``tasks``; values come back in task order.

    *Inline* when ``pool`` is ``None`` and one worker suffices
    (:func:`~repro.parallel.resolve_workers`): ``fn(task,
    telemetry=telemetry, compile_cache=compile_cache)`` in task order,
    with ``task_start``/``task_end`` frames for ``on_frame`` and
    ``on_result(index, value)`` as each task lands; a task's exception
    propagates unchanged.

    *Supervised* otherwise, on ``pool`` or on a fresh supervisor, under
    the dispatch span ``span``: each task is stamped with the span's
    trace context, ``with_metrics`` and ``use_cache``
    (``compile_cache is not None``; the cache itself cannot cross the
    process boundary), ``on_result`` fires in completion order, and
    ``inject_kill`` lists task indices whose worker SIGKILLs itself once
    before running them.  Task exceptions raise one
    :class:`~repro.parallel.TaskFailed` carrying every failure; worker
    snapshots are stitched (lane ``index % workers``) and merged into
    ``telemetry`` in task order.  Quarantined tasks stay in the report
    for the caller to map.
    """
    tasks = list(tasks)
    if pool is None and resolve_workers(workers, len(tasks)) == 1:
        return _run_inline(fn, tasks, telemetry, compile_cache, on_frame, on_result)
    width = pool.workers if pool is not None else resolve_workers(workers, len(tasks))
    with maybe_span(telemetry, span, workers=width):
        stamp = {
            "trace": telemetry.current_context() if telemetry is not None else None,
            "with_metrics": telemetry is not None,
            "use_cache": compile_cache is not None,
        }
        tasks = [replace(task, **stamp) for task in tasks]
        job = partial(_in_worker, fn)
        options = dict(
            on_frame=on_frame,
            stream_interval_s=stream_interval_s,
            on_result=on_result,
            inject_kill=inject_kill,
        )
        if pool is not None:
            report = pool.run(job, tasks, **options)
        else:
            with Supervisor(width, telemetry=telemetry) as fresh:
                report = fresh.run(job, tasks, **options)
    if report.failures:
        first = min(report.failures)
        message, remote_tb = report.failures[first]
        raise TaskFailed(first, message, remote_tb, failures=report.failures)
    if telemetry is not None:
        for index, value in enumerate(report.values):
            if value is not None:
                telemetry.stitch_snapshot(value.metrics, worker=index % width)
                value.metrics.merge_into(telemetry.metrics)
    return report


def _run_inline(fn, tasks, telemetry, compile_cache, on_frame, on_result):
    report = SupervisionReport(values=[None] * len(tasks))
    total = len(tasks)
    for index, task in enumerate(tasks):
        if on_frame is not None:
            label = task_label(task)
            on_frame(0, make_frame(
                "task_start", task=index, label=label, done=index, total=total,
            ))
        value = fn(task, telemetry=telemetry, compile_cache=compile_cache)
        report.values[index] = value
        if on_frame is not None:
            on_frame(0, make_frame(
                "task_end", task=index, label=label, done=index + 1, total=total, ok=True,
            ))
        if on_result is not None:
            on_result(index, value)
    return report


def _in_worker(fn, task):
    """Run one core in a worker: its own telemetry, the worker's cache."""
    from .cache import default_compile_cache

    telemetry = Telemetry(context=task.trace) if task.with_metrics else None
    result = fn(
        task,
        telemetry=telemetry,
        compile_cache=default_compile_cache() if task.use_cache else None,
    )
    return replace(result, metrics=MetricsSnapshot.from_telemetry(telemetry))


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
    """A solved cell: the row (plan stripped to names), worker metrics."""

    row: object  # Table2Row with plan=None and plan_names filled
    metrics: MetricsSnapshot = field(default_factory=MetricsSnapshot)
    profile: bytes = b""
    """Marshal pstats blob of the whole task, when profiling was asked."""
    pid: int = 0
    """The process that solved the cell (the profile's lane)."""


def run_cell_task(
    task: CellTask, *, telemetry: Telemetry | None = None, compile_cache=None
) -> CellResult:
    """Solve one Table 2 cell; the row comes back with its plan as names."""
    from ..experiments.harness import run_cell
    from ..obs import capture_profile

    blobs: list[bytes] = []
    with capture_profile(blobs) if task.profile else nullcontext():
        row = run_cell(
            task.network,
            task.scenario,
            source_bw=task.source_bw,
            demand=task.demand,
            rg_node_budget=task.rg_node_budget,
            telemetry=telemetry,
            compile_cache=compile_cache,
            static_prune=task.static_prune,
        )
    row.plan = None  # the full Plan holds the compiled problem; too big to ship
    return CellResult(
        row=row,
        profile=blobs[0] if blobs else b"",
        pid=os.getpid(),
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


def run_campaign_task(
    task: CampaignTask, *, telemetry: Telemetry | None = None, compile_cache=None
) -> CampaignResult:
    """Run one fault campaign."""
    from ..simulate.campaign import run_campaign_run

    result = run_campaign_run(
        task.app,
        task.network,
        task.leveling,
        task.spec,
        seed=task.seed,
        events=task.events,
        time_limit_s=task.time_limit_s,
        telemetry=telemetry,
        compile_cache=compile_cache,
    )
    return CampaignResult(
        seed=task.seed,
        record=result.to_dict(include_timings=task.include_timings),
        description=result.describe(),
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


def run_domain_task(
    task: DomainTask, *, telemetry: Telemetry | None = None, compile_cache=None
) -> DomainResult:
    """Solve one hierarchical domain subproblem."""
    from ..planner import Planner, PlannerConfig, PlanningError

    config = PlannerConfig(
        leveling=task.leveling,
        rg_node_budget=task.rg_node_budget,
        time_limit_s=task.time_limit_s,
        telemetry=telemetry,
    )
    planner = Planner(config)
    try:
        if compile_cache is not None:
            problem = compile_cache.compile(
                task.app,
                task.network,
                task.leveling,
                metrics=telemetry.metrics if telemetry is not None else None,
            )
        else:
            problem = planner.compile(task.app, task.network)
        plan = planner.solve(problem=problem)
    except PlanningError as exc:
        return DomainResult(domain=task.domain, solved=False, failure=type(exc).__name__)
    return DomainResult(
        domain=task.domain,
        solved=True,
        action_names=tuple(plan.action_names()),
        cost_lb=plan.cost_lb,
        exact_cost=plan.exact_cost,
        compile_source=problem.compile_source,
    )


# -- fleet-repair tasks (controller fan-out) -----------------------------------


@dataclass(frozen=True)
class RepairTask:
    """One deployment's repair against the current network state.

    Its core is :func:`repro.simulate.controller.repair_member`, the one
    repair path of the fleet controller and the churn simulator.
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
    from ..planner.robust import attempt_rung

    telemetry = Telemetry(context=job.trace) if job.with_metrics else None
    config = replace(job.config, telemetry=telemetry)
    plan, attempt, _error = attempt_rung(job.rung, job.app, job.network, config)
    return RungOutcome(
        attempt=attempt,
        plan=PlanEnvelope.from_plan(plan) if plan is not None else None,
        metrics=MetricsSnapshot.from_telemetry(telemetry),
    )
