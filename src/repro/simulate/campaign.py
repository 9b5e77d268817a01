"""Campaign assembly: one seeded fault-campaign run, and multi-seed fan-out.

:func:`run_campaign_run` builds and runs one campaign from its spec.  It
serves two callers:

* the CLI's ``repro simulate`` (single run, stdout record);
* :func:`run_campaign` (multi-seed sweeps, one run per
  :func:`repro.parallel.workers.run_campaign_task` through
  :func:`repro.parallel.run_tasks`, inline or supervised).

A campaign *spec* is the JSON dict documented in docs/ROBUSTNESS.md:
``faults`` (seeded :class:`FaultModel`), optional explicit ``events``,
optional ``injector``/``retry`` (transient-fault machinery), planner
bounds (``rg_node_budget``, ``time_limit_s``), and repair policy knobs.

Records are deterministic: :meth:`SimulationResult.to_dict` excludes
timings unless asked, so the same (spec, seed) pair serializes
byte-identically at any worker count — the determinism suite in
``tests/parallel/`` diffs exactly that.
"""

from __future__ import annotations

from dataclasses import replace

from ..model import AppSpec, Leveling
from ..network import Network
from ..obs import Telemetry
from .events import Event, event_from_dict
from .faults import FaultInjector, FaultModel, RetryPolicy, generate_timeline
from .runner import Simulation, SimulationResult

__all__ = ["campaign_timeline", "repair_template", "run_campaign_run", "run_campaign"]

_DEFAULT_CACHE = Simulation._DEFAULT_CACHE
"""Sentinel: let the simulation use the process-global compile cache
(its own default).  Pass ``compile_cache=None`` to force fresh
compilation everywhere."""

DEFAULT_RG_NODE_BUDGET = 20_000
"""Default per-repair RG node budget for campaigns: proving a degraded
step infeasible under the planner's default 500k budget can take minutes
per step, so campaigns bound it and report a fast, honest outage."""


def campaign_timeline(
    network: Network,
    spec: dict,
    seed: int | None = None,
    events: int | None = None,
) -> list[Event]:
    """The event timeline a campaign spec describes for ``network``.

    An explicit ``events`` list in the spec wins (replayed verbatim —
    seed overrides are ignored, matching the CLI); otherwise a timeline
    is generated from the spec's fault model with ``seed``/``events``
    overriding the model's own values.

    Raises
    ------
    ValueError
        On a malformed explicit event dict.
    TypeError
        On unknown fault-model fields.
    """
    if "events" in spec:
        return [event_from_dict(d) for d in spec["events"]]
    faults = FaultModel.from_dict(spec.get("faults", {}))
    if seed is not None:
        faults = replace(faults, seed=seed)
    if events is not None:
        faults = replace(faults, events=events)
    return generate_timeline(network, faults)


def repair_template(
    app: AppSpec,
    network: Network,
    leveling: Leveling,
    spec: dict,
    time_limit_s: float | None = None,
):
    """The spec's repair policy as a :class:`~repro.parallel.RepairTask`.

    The one reader of the repair-policy keys for both drivers
    (:func:`run_campaign_run` and
    :func:`~repro.simulate.controller.run_controller`):
    ``rg_node_budget`` (default :data:`DEFAULT_RG_NODE_BUDGET`),
    ``time_limit_s`` (the spec's value wins over the argument),
    ``migration_cost_factor``, ``delta_replanning`` and
    ``replan_from_scratch_on_outage``.  The template deploys ``app`` on
    ``network`` from scratch; callers ``replace`` the app, network and
    deployment per repair.
    """
    from ..parallel import RepairTask

    return RepairTask(
        app=app,
        network=network,
        leveling=leveling,
        deployment_names=None,
        migration_cost_factor=float(spec.get("migration_cost_factor", 0.5)),
        rg_node_budget=int(spec.get("rg_node_budget", DEFAULT_RG_NODE_BUDGET)),
        time_limit_s=spec.get("time_limit_s", time_limit_s),
        use_delta=bool(spec.get("delta_replanning", False)),
        replan_from_scratch=bool(spec.get("replan_from_scratch_on_outage", True)),
    )


def run_campaign_run(
    app: AppSpec,
    network: Network,
    leveling: Leveling,
    spec: dict,
    seed: int | None = None,
    events: int | None = None,
    time_limit_s: float | None = None,
    telemetry: Telemetry | None = None,
    compile_cache=_DEFAULT_CACHE,
) -> SimulationResult:
    """Build and run one campaign from its JSON spec.

    ``seed``/``events`` override the spec's fault model (ignored when the
    spec carries explicit events); ``time_limit_s`` is the per-repair
    wall-clock bound, with the spec's own ``time_limit_s`` taking
    precedence (CLI semantics).  ``compile_cache`` feeds the simulation's
    repair loop (see :class:`~repro.simulate.Simulation`); pass ``None``
    to force fresh compilation everywhere.
    """
    timeline = campaign_timeline(network, spec, seed=seed, events=events)
    injector = FaultInjector(**spec["injector"]) if "injector" in spec else None
    retry = RetryPolicy(**spec["retry"]) if "retry" in spec else None
    policy = repair_template(app, network, leveling, spec, time_limit_s)
    sim = Simulation(
        app,
        network,
        leveling,
        migration_cost_factor=policy.migration_cost_factor,
        replan_from_scratch_on_outage=policy.replan_from_scratch,
        fault_injector=injector,
        retry_policy=retry,
        rg_node_budget=policy.rg_node_budget,
        time_limit_s=policy.time_limit_s,
        telemetry=telemetry,
        compile_cache=compile_cache,
        delta_replanning=policy.use_delta,
    )
    return sim.run(timeline)


def run_campaign(
    app: AppSpec,
    network: Network,
    leveling: Leveling,
    spec: dict,
    seeds: list[int] | None = None,
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
    """Run a campaign once per seed; return one deterministic document.

    ``seeds=None`` runs once with the spec's own seed.  Runs go one per
    task through :func:`~repro.parallel.run_tasks`: inline when one
    worker suffices, else under a :class:`~repro.parallel.Supervisor`,
    where a worker that dies mid-run is respawned and its tasks retried,
    and poison tasks are quarantined as structured run entries
    (``"quarantined"`` key) rather than aborting the sweep.  Task
    exceptions propagate inline and raise
    :class:`~repro.parallel.TaskFailed` (carrying *every* failed index)
    when supervised.
    Records come back keyed and ordered by their position in ``seeds``
    regardless of completion order, and worker metrics are merged into
    ``telemetry`` in task order — so the returned document is
    byte-identical at any worker count for fixed seeds, worker deaths
    included.  Worker spans stitch under the coordinator's
    ``campaign.fanout`` dispatch span.  ``on_frame`` attaches the live
    telemetry stream (``--live``); frames are display-only and never
    touch the returned document.

    ``journal`` (a :class:`~repro.simulate.RunJournal`) checkpoints each
    completed run as it lands (key ``run-{i}``) and skips runs already
    journaled — the crash-safe ``--checkpoint``/``--resume`` path.
    ``inject_kill`` lists task indices whose worker SIGKILLs itself
    before running them, once each (fault injection for tests/CI).
    """
    from ..parallel import CampaignTask, run_campaign_task, run_tasks

    run_seeds: list[int | None] = list(seeds) if seeds else [None]
    total = len(run_seeds)
    entries: list[dict | None] = [None] * total
    pending: list[int] = []
    for index in range(total):
        key = f"run-{index}"
        if journal is not None and key in journal:
            entries[index] = journal.get(key)
        else:
            pending.append(index)

    def settle(index: int, entry: dict) -> None:
        entries[index] = entry
        if journal is not None:
            journal.append(f"run-{index}", entry)

    tasks = [
        CampaignTask(
            app=app,
            network=network,
            leveling=leveling,
            spec=spec,
            seed=run_seeds[i],
            events=events,
            time_limit_s=time_limit_s,
            include_timings=include_timings,
        )
        for i in pending
    ]

    def on_result(local_index: int, res) -> None:
        settle(
            pending[local_index],
            {"seed": res.seed, "record": res.record, "description": res.description},
        )

    report = run_tasks(
        run_campaign_task,
        tasks,
        workers=workers,
        telemetry=telemetry,
        compile_cache=compile_cache,
        span="campaign.fanout",
        on_frame=on_frame,
        stream_interval_s=stream_interval_s,
        on_result=on_result,
        inject_kill=inject_kill,
    )
    for q in report.quarantined:
        index = pending[q.index]
        settle(
            index,
            {
                "seed": run_seeds[index],
                "record": None,
                "description": f"quarantined: {q.reason}",
                "quarantined": q.to_dict(),
            },
        )
    return {"format": 1, "runs": entries}
