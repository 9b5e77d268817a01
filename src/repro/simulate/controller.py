"""The fleet controller: many live deployments, one repair queue.

The churn simulator (:mod:`repro.simulate.runner`) follows a *single*
deployment through a fault timeline.  Real control planes watch a fleet:
every network event puts every affected deployment into a repair queue,
and the number that matters is **time to recover** — how long the
controller takes to get a member from "broken" back to "running".

:func:`run_controller` replays a seeded fault timeline
(:func:`~repro.simulate.campaign_timeline`) against a fleet of
application instances (:func:`replicate_apps`).  After each event, every
member is repaired — through :func:`repro.planner.repair_by_names`, so a
member's deployment travels as a tuple of ground-action names — as one
batch of :class:`~repro.parallel.RepairTask` payloads through
:func:`repro.parallel.run_tasks`, inline or fanned out over a persistent
:class:`~repro.parallel.Supervisor`.  Deterministic task→worker
sharding pins each member to one worker, so that worker's compile cache
always holds the member's previous network state: exactly the base the
delta-aware compile (``delta_replanning`` in the spec) patches instead
of re-grounding.

Telemetry: each repair's wall clock lands in the ``repair.ttr``
histogram (milliseconds), and the repair problem's provenance is counted
as ``repair.delta.hit`` (served from cache or patched across the
network diff) vs ``repair.delta.full`` (full recompilation).  The
returned record is deterministic — timings and provenance stay out of
it unless asked — so CI can diff a delta-replanning run against a
from-scratch run and assert the *outcomes* are identical while only the
time-to-recover differs (docs/ROBUSTNESS.md).
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING

from ..model import AppSpec, Leveling
from ..network import Network
from ..obs import Telemetry, timed
from ..planner import Planner, PlannerConfig, PlanningError, repair_by_names
from .campaign import campaign_timeline, repair_template
from .events import apply_event, event_to_dict
from .runner import Simulation

if TYPE_CHECKING:  # pragma: no cover - typing only; avoids a package cycle
    from ..parallel import CompileCache, RepairOutcome, RepairTask

__all__ = ["replicate_apps", "repair_member", "run_controller"]

_DEFAULT_CACHE = Simulation._DEFAULT_CACHE
"""Sentinel: use the process-global compile cache (pass ``None`` to
compile fresh everywhere)."""

DEFAULT_FLEET = 3
"""Default fleet size when neither the spec nor the caller names one."""


def replicate_apps(app: AppSpec, n: int) -> list[AppSpec]:
    """``n`` independent fleet members of ``app``.

    Members differ only in name (``app-0`` … ``app-n-1``); distinct names
    give distinct content fingerprints, so every member owns its compile-
    cache entries and its deployments never alias another member's.
    """
    if n < 1:
        raise ValueError("fleet size must be at least 1")
    return [replace(app, name=f"{app.name}-{k}") for k in range(n)]


def repair_member(
    task: "RepairTask",
    *,
    telemetry: Telemetry | None = None,
    compile_cache: "CompileCache | None" = None,
) -> "RepairOutcome":
    """Run one :class:`~repro.parallel.RepairTask` to its outcome.

    The one repair path, shared by both drivers.  :func:`run_controller`
    hands it to :func:`repro.parallel.run_tasks`, which calls it inline
    with the controller's telemetry and cache, or in a worker with the
    worker's own telemetry and process-global cache;
    :class:`~repro.simulate.Simulation` calls it for its initial deploy
    and after each event.  A task without a deployment is deployed from
    scratch, or is an outage when ``replan_from_scratch`` is off (both
    drivers force it on for the initial deploy).  :func:`run_controller`
    reads this module global once per batch and passes keywords only,
    so a ``repair_member(task, **kwargs)`` wrapper assigned here sees
    every inline repair.  Planning failures —
    including an (app, network) pair invalidated by the event, e.g. a
    partition — become an ``"outage"`` outcome, never an exception.
    """
    from ..parallel import RepairOutcome

    with timed("repair") as clock:
        fields = _repair(task, telemetry, compile_cache)
    return RepairOutcome(app=task.app.name, wall_ms=clock.duration_ms, **fields)


def _repair(task: "RepairTask", telemetry, compile_cache) -> dict:
    """:func:`repair_member`'s body: the outcome's fields but ``app``/``wall_ms``."""
    config = PlannerConfig(
        rg_node_budget=task.rg_node_budget,
        time_limit_s=task.time_limit_s,
        telemetry=telemetry,
    )
    try:
        if task.deployment_names is None:
            if not task.replan_from_scratch:
                raise PlanningError("deployment lost and replanning disabled")
            config.leveling = task.leveling
            planner = Planner(config)
            if compile_cache is None:
                plan = planner.solve(task.app, task.network)
                source = "fresh"
            else:
                problem = compile_cache.compile(
                    task.app,
                    task.network,
                    task.leveling,
                    metrics=telemetry.metrics if telemetry is not None else None,
                )
                source = problem.compile_source
                plan = planner.solve(problem=problem)
            return dict(
                outcome="redeployed",
                deployment_names=tuple(plan.action_names()),
                repaired=len(plan),
                repair_cost=plan.exact_cost,
                total_cost=plan.exact_cost,
                compile_source=source,
            )
        result = repair_by_names(
            task.app,
            task.network,
            task.deployment_names,
            leveling=task.leveling,
            migration_cost_factor=task.migration_cost_factor,
            planner_config=config,
            compile_cache=compile_cache,
            use_delta=task.use_delta,
        )
        return dict(
            outcome="repaired",
            deployment_names=tuple(a.name for a in result.combined_actions()),
            survived=len(result.surviving_actions),
            repaired=len(result.repair_plan),
            repair_cost=(
                result.repair_plan.exact_cost if result.repair_plan.actions else 0.0
            ),
            total_cost=result.total_cost,
            compile_source=result.compile_source,
        )
    except (PlanningError, ValueError) as exc:
        return dict(outcome="outage", failure=f"{type(exc).__name__}: {exc}")


def run_controller(
    app: AppSpec,
    network: Network,
    leveling: Leveling,
    spec: dict,
    fleet: int | None = None,
    seed: int | None = None,
    events: int | None = None,
    time_limit_s: float | None = None,
    include_timings: bool = False,
    telemetry: Telemetry | None = None,
    compile_cache=_DEFAULT_CACHE,
    workers: int = 1,
    on_frame=None,
    stream_interval_s: float | None = None,
    journal=None,
    inject_kill=(),
) -> dict:
    """Replay a fault timeline against a fleet; return one record.

    The spec is the campaign spec of docs/ROBUSTNESS.md plus two fleet
    knobs: ``fleet`` (member count, overridden by the parameter) and
    ``delta_replanning`` (compile repair problems by patching the
    member's previous network state).  Every member is repaired after
    every event, one :class:`~repro.parallel.RepairTask` per member
    through :func:`~repro.parallel.run_tasks` — inline when one worker
    suffices for the fleet, else fanned out with deterministic sharding
    over one persistent supervisor, created on the first batch that runs.

    The record is deterministic for a fixed (spec, seed, fleet) at any
    worker count and with delta replanning on or off — timings are
    excluded unless ``include_timings``, and the only delta-dependent
    fields are ``summary.delta_hits`` / ``summary.delta_full`` (the CI
    audit pops exactly those before diffing).

    With ``telemetry``, each fanned-out batch runs under a
    ``controller.batch`` dispatch span and worker repair spans stitch
    under it; ``on_frame`` attaches the live telemetry stream
    (``--live``) in both the inline and fanned-out paths.

    Fanned-out batches run under a :class:`~repro.parallel.Supervisor`:
    a worker death respawns the worker and retries its repairs, and a
    repair that repeatedly kills workers lands as a structured
    ``"quarantined"`` outcome (counted as an outage) instead of aborting
    the run.  ``journal`` (a :class:`~repro.simulate.RunJournal`)
    checkpoints the initial deploy and each completed step (keys
    ``initial``, ``step-{i}``), and already-journaled steps are replayed
    instead of recomputed — the ``--checkpoint``/``--resume`` path.
    ``inject_kill`` lists batch-task indices whose worker SIGKILLs
    itself before running them, once, in the *first non-replayed batch*
    (fault injection for tests/CI).
    """
    from ..parallel import RepairOutcome, Supervisor, resolve_workers, run_tasks

    if compile_cache is _DEFAULT_CACHE:
        from ..parallel import default_compile_cache

        compile_cache = default_compile_cache()

    fleet_size = int(fleet if fleet is not None else spec.get("fleet", DEFAULT_FLEET))
    members = replicate_apps(app, fleet_size)
    timeline = campaign_timeline(network, spec, seed=seed, events=events)
    template = repair_template(app, network, leveling, spec, time_limit_s)

    delta_hits = 0
    delta_full = 0
    ttr_ms: list[float] = []
    inject_pending = list(inject_kill)
    width = resolve_workers(workers, fleet_size)
    pool = None

    def run_batch(tasks: list) -> list:
        nonlocal pool
        if pool is None and width > 1:
            # Created lazily: a fully-journaled resume never spawns workers.
            pool = Supervisor(width, telemetry=telemetry)
        report = run_tasks(
            repair_member,  # read per batch: a wrapper bound to this global is used
            tasks,
            telemetry=telemetry,
            compile_cache=compile_cache,
            span="controller.batch",
            pool=pool,
            on_frame=on_frame,
            stream_interval_s=stream_interval_s,
            inject_kill=inject_pending[:],
        )
        inject_pending.clear()
        outcomes = list(report.values)
        for q in report.quarantined:
            outcomes[q.index] = RepairOutcome(
                app=tasks[q.index].app.name,
                outcome="quarantined",
                failure=f"quarantined: {q.reason}",
            )
        return outcomes

    def freeze_deployments(deployments: dict) -> dict:
        return {
            name: (list(names) if names is not None else None)
            for name, names in deployments.items()
        }

    def thaw_deployments(payload: dict) -> dict:
        return {
            name: (tuple(names) if names is not None else None)
            for name, names in payload.items()
        }

    with timed("controller.run") as clock:
        try:
            # Initial deploys: every member solved from scratch on the
            # starting network (these also warm each worker's cache with the
            # member's first network state).
            if journal is not None and "initial" in journal:
                payload = journal.get("initial")
                initial_records = payload["records"]
                deployments: dict[str, tuple[str, ...] | None] = thaw_deployments(
                    payload["deployments"]
                )
            else:
                # The replan flag governs redeploys after an outage, not
                # the first deploy.
                initial_outcomes = run_batch(
                    [replace(template, app=m, replan_from_scratch=True) for m in members]
                )
                deployments = {
                    o.app: (o.deployment_names if not o.failed else None)
                    for o in initial_outcomes
                }
                initial_records = [
                    (
                        {
                            "app": o.app,
                            "deployed": not o.failed,
                            "actions": len(o.deployment_names),
                            "cost": o.total_cost,
                        }
                        if not o.failed
                        else {"app": o.app, "deployed": False, "failure": o.failure}
                    )
                    for o in initial_outcomes
                ]
                if journal is not None:
                    journal.append(
                        "initial",
                        {
                            "records": initial_records,
                            "deployments": freeze_deployments(deployments),
                        },
                    )

            steps = []
            repairs_total = 0
            outages = 0
            redeployments = 0
            total_repair_cost = 0.0
            current = network
            for index, event in enumerate(timeline):
                current = apply_event(current, event)
                key = f"step-{index}"
                if journal is not None and key in journal:
                    # Replay a journaled step: restore the record verbatim
                    # and the counters/state the later steps build on.
                    payload = journal.get(key)
                    step = payload["step"]
                    deployments = thaw_deployments(payload["deployments"])
                    delta_hits += int(payload["delta_hits"])
                    delta_full += int(payload["delta_full"])
                    for record in step["repairs"]:
                        repairs_total += 1
                        if record["failed"]:
                            outages += 1
                        else:
                            total_repair_cost += record["repair_cost"]
                            if "ttr_ms" in record:
                                ttr_ms.append(record["ttr_ms"])
                            if record["outcome"] == "redeployed":
                                redeployments += 1
                    steps.append(step)
                    continue
                outcomes = run_batch([
                    replace(template, app=m, network=current, deployment_names=deployments[m.name])
                    for m in members
                ])
                repair_records = []
                step_hits = 0
                step_full = 0
                for outcome in outcomes:
                    deployments[outcome.app] = (
                        outcome.deployment_names if not outcome.failed else None
                    )
                    repairs_total += 1
                    if outcome.failed:
                        outages += 1
                    else:
                        total_repair_cost += outcome.repair_cost
                        ttr_ms.append(outcome.wall_ms)
                        if outcome.outcome == "redeployed":
                            redeployments += 1
                    if outcome.compile_source in ("cache", "delta"):
                        step_hits += 1
                    else:
                        step_full += 1
                    if telemetry is not None:
                        telemetry.metrics.observe("repair.ttr", outcome.wall_ms)
                        if outcome.compile_source in ("cache", "delta"):
                            telemetry.metrics.inc("repair.delta.hit")
                        else:
                            telemetry.metrics.inc("repair.delta.full")
                    record = {
                        "app": outcome.app,
                        "outcome": outcome.outcome,
                        "survived": outcome.survived,
                        "repaired": outcome.repaired,
                        "repair_cost": outcome.repair_cost,
                        "total_cost": outcome.total_cost,
                        "failed": outcome.failed,
                        "failure": outcome.failure,
                    }
                    if include_timings:
                        record["ttr_ms"] = outcome.wall_ms
                    repair_records.append(record)
                delta_hits += step_hits
                delta_full += step_full
                step = {
                    "index": index,
                    "event": event_to_dict(event),
                    "repairs": repair_records,
                }
                steps.append(step)
                if journal is not None:
                    journal.append(
                        key,
                        {
                            "step": step,
                            "deployments": freeze_deployments(deployments),
                            "delta_hits": step_hits,
                            "delta_full": step_full,
                        },
                    )
        finally:
            if pool is not None:
                pool.close()

    summary = {
        "fleet": fleet_size,
        "events": len(timeline),
        "repairs": repairs_total,
        "outages": outages,
        "redeployments": redeployments,
        "availability": (
            round(1.0 - outages / repairs_total, 6) if repairs_total else 1.0
        ),
        "total_repair_cost": total_repair_cost,
        "delta_hits": delta_hits,
        "delta_full": delta_full,
    }
    if include_timings:
        summary["ttr_ms_mean"] = sum(ttr_ms) / len(ttr_ms) if ttr_ms else 0.0
        summary["ttr_ms_max"] = max(ttr_ms, default=0.0)
    record: dict = {
        "format": 1,
        "fleet": [m.name for m in members],
        "initial": initial_records,
        "steps": steps,
        "summary": summary,
    }
    if include_timings:
        record["wall_ms"] = clock.duration_ms
    return record
