"""One process boundary: every batch and race of planner work, and the
task kinds they run.

:func:`run_tasks` is how every batch of planner work runs — the
Table-2 sweep, fault campaigns, the fleet controller's repair batches
and hierarchical domain solves.  A batch that needs one worker runs
inline, in task order, recording into the caller's telemetry and
compiling through the caller's cache; any other batch runs under a
:class:`~repro.parallel.Supervisor` inside the caller's dispatch span.
:func:`race_tasks` races the solve ladder's rungs (:class:`RungJob`,
:func:`run_rung_task`) by priority and cancels the losers.

Every task kind has one *core*, ``fn(task, *, telemetry=None,
compile_cache=None)``, taking one pickleable payload dataclass of
domain fields and returning one pickleable result dataclass.  This
module is the only one that knows what crosses a process boundary.
Going out, a task rides in a private job record with the dispatch
span's trace context, a metrics flag and a cache flag.  In the worker
:func:`_in_worker` runs the core with its own
:class:`~repro.obs.Telemetry` under that context (when metrics are
asked for) and the worker's process-global warm-start cache
(:func:`~repro.parallel.default_compile_cache`).  Coming home, the
core's value and the worker telemetry as a
:class:`~repro.obs.MetricsSnapshot` ride in a private return record,
and :func:`_bring_home` stitches and merges the snapshot: a batch's in
task order, so a fanned-out batch reports the same counters an inline
one does; a race's for the winner only.  A plan crosses by name, as
:meth:`Plan.to_dict <repro.planner.Plan.to_dict>`.  Spawn-started
workers pickle task functions *by reference*, so cores and payloads
live at module level.
"""

from __future__ import annotations

import os
from contextlib import nullcontext
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Sequence

from ..model import AppSpec, Leveling
from ..network import Network
from ..obs import MetricsSnapshot, Telemetry, make_frame, maybe_span, task_label
from ..obs.context import TraceContext
from .supervisor import SupervisionReport, Supervisor, TaskFailed, resolve_workers

__all__ = [
    "run_tasks",
    "race_tasks",
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
    the dispatch span ``span``: each task travels with the span's trace
    context and asks for worker metrics when ``telemetry`` is set and
    for the worker's cache when ``compile_cache`` is (the cache itself
    cannot cross the process boundary), ``on_result`` fires in
    completion order, and ``inject_kill`` lists task indices whose
    worker SIGKILLs itself once before running them.  Task exceptions
    raise one :class:`~repro.parallel.TaskFailed` carrying every
    failure; worker snapshots are stitched (lane ``index % workers``)
    and merged into ``telemetry`` in task order.  Quarantined tasks stay
    in the report for the caller to map.
    """
    tasks = list(tasks)
    if pool is None and resolve_workers(workers, len(tasks)) == 1:
        return _run_inline(fn, tasks, telemetry, compile_cache, on_frame, on_result)
    width = pool.workers if pool is not None else resolve_workers(workers, len(tasks))
    with maybe_span(telemetry, span, workers=width):
        jobs = _jobs(tasks, telemetry, compile_cache)
        options = dict(
            on_frame=on_frame,
            stream_interval_s=stream_interval_s,
            on_result=(lambda i, done: on_result(i, done.value)) if on_result else None,
            inject_kill=inject_kill,
        )
        if pool is not None:
            report = pool.run(partial(_in_worker, fn), jobs, **options)
        else:
            with Supervisor(width, telemetry=telemetry) as fresh:
                report = fresh.run(partial(_in_worker, fn), jobs, **options)
    if report.failures:
        first = min(report.failures)
        message, remote_tb = report.failures[first]
        raise TaskFailed(first, message, remote_tb, failures=report.failures)
    for index, done in enumerate(report.values):
        if done is not None:
            _bring_home(telemetry, done, worker=index % width)
    return _values(report)


def race_tasks(
    fn: Callable,
    tasks: Sequence,
    *,
    workers: int,
    telemetry: Telemetry | None,
    span: str,
    verdict: Callable[[SupervisionReport], tuple[bool, int | None]],
    deadline_s: float | None = None,
    **attrs,
) -> SupervisionReport:
    """Race the core ``fn`` over ``tasks`` in priority order (index 0 is best).

    The race runs on a fresh supervisor (:meth:`~repro.parallel.Supervisor.race`)
    under the dispatch span ``span`` (``workers`` and ``attrs`` are its
    attributes).  ``verdict(report)`` reads the values settled so far
    and returns ``(decided, winner index or None)``; the race stops once
    it is decided or ``deadline_s`` after the start, and a task
    exception stops it and raises :class:`~repro.parallel.TaskFailed`.
    Only the winner's worker telemetry is stitched and merged into
    ``telemetry``: the losers' work was cancelled, so counting it would
    misstate the cost of the result.
    """
    with maybe_span(telemetry, span, workers=workers, **attrs):
        jobs = _jobs(tasks, telemetry, None)
        with Supervisor(resolve_workers(workers, len(jobs)), telemetry=telemetry) as sup:
            report = sup.race(
                partial(_in_worker, fn),
                jobs,
                accept=lambda r: bool(r.failures) or verdict(_values(r))[0],
                deadline_s=deadline_s,
            )
    if report.failures:  # a task raised: a bug, not a verdict
        report.raise_on_failure()
    values = _values(report)
    _decided, winner = verdict(values)
    if winner is not None:
        _bring_home(telemetry, report.values[winner])
    return values


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


@dataclass(frozen=True)
class _Job:
    """One task on its way into a worker (``task_label`` reads ``task``)."""

    task: object
    trace: TraceContext | None
    with_metrics: bool
    use_cache: bool


@dataclass(frozen=True)
class _Done:
    """One core's value on its way home, with the worker's telemetry."""

    value: object
    metrics: MetricsSnapshot  # FrameSender.task_end streams its records


def _jobs(tasks, telemetry, compile_cache) -> list[_Job]:
    """Wrap ``tasks`` for workers; call inside the dispatch span."""
    trace = telemetry.current_context() if telemetry is not None else None
    return [_Job(task, trace, telemetry is not None, compile_cache is not None) for task in tasks]


def _in_worker(fn, job: _Job) -> _Done:
    """Run one core in a worker: its own telemetry, the worker's cache."""
    from .cache import default_compile_cache

    telemetry = Telemetry(context=job.trace) if job.with_metrics else None
    value = fn(
        job.task,
        telemetry=telemetry,
        compile_cache=default_compile_cache() if job.use_cache else None,
    )
    return _Done(value, MetricsSnapshot.from_telemetry(telemetry))


def _bring_home(telemetry, done: _Done, worker: int | None = None) -> None:
    """Stitch and merge one worker snapshot into ``telemetry``."""
    if telemetry is not None:
        telemetry.stitch_snapshot(done.metrics, worker=worker)
        done.metrics.merge_into(telemetry.metrics)


def _values(report: SupervisionReport) -> SupervisionReport:
    """``report`` with each return record replaced by the core's value."""
    return replace(
        report, values=[done.value if done is not None else None for done in report.values]
    )


# -- Table 2 cells (experiments.harness fan-out) -------------------------------


@dataclass(frozen=True)
class CellTask:
    """One (network, scenario) cell of the paper's evaluation."""

    network: str
    scenario: str
    source_bw: float
    demand: float
    rg_node_budget: int
    static_prune: str | None = None
    profile: bool = False


@dataclass(frozen=True)
class CellResult:
    """A solved cell: the row, its plan stripped to names."""

    row: object  # Table2Row with plan=None and plan_names filled
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


@dataclass(frozen=True)
class CampaignResult:
    """One campaign run's deterministic record."""

    seed: int | None
    record: dict
    description: str


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
    replan_from_scratch: bool = True


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


@dataclass(frozen=True)
class RungOutcome:
    """One rung's attempt record and, when it succeeded, its plan by name."""

    attempt: object  # repro.planner.robust.RungAttempt
    plan: dict | None = None  # Plan.to_dict()
    stats: object = None  # the plan's PlannerStats


def run_rung_task(
    job: RungJob, *, telemetry: Telemetry | None = None, compile_cache=None
) -> RungOutcome:
    """Run one ladder rung; planner errors come back as data."""
    from ..planner.robust import attempt_rung

    config = replace(job.config, telemetry=telemetry)
    plan, attempt, _error = attempt_rung(job.rung, job.app, job.network, config)
    if plan is None:
        return RungOutcome(attempt)
    return RungOutcome(attempt, plan.to_dict(), plan.stats)
