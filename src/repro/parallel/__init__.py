"""Process-parallel execution (docs/PERFORMANCE.md, "Parallel execution").

Spawn-safe building blocks for running planner work across processes:

* :func:`run_tasks` (:mod:`repro.parallel.workers`) — the one batch
  fan-out: a list of task payloads through one task core, inline when
  one worker suffices, else under a :class:`Supervisor`.
  :mod:`repro.parallel.workers` is the one process boundary: tasks and
  results carry domain fields only, one worker wrapper carries the
  trace context, metrics and cache flags out and the worker's
  :class:`~repro.obs.MetricsSnapshot` home, and a raced plan travels
  as :meth:`Plan.to_dict <repro.planner.Plan.to_dict>`.
* :class:`Supervisor` (:mod:`repro.parallel.supervisor`) — the one
  process manager: persistent spawn-started workers running either a
  deterministically sharded batch (``run``) or a priority race
  (``race``), with death detection, respawn, retry with a budget,
  poison quarantine (:class:`TaskQuarantined`), and in-process
  fallback, reported via :class:`SupervisionReport`; task exceptions
  surface as :class:`TaskFailed` (docs/ROBUSTNESS.md).
* :class:`CompileCache` (:mod:`repro.parallel.cache`) — warm-start
  compile cache keyed by content fingerprints
  (:mod:`repro.parallel.fingerprint`), one per worker process.
* Task payloads and cores (:mod:`repro.parallel.workers`) — Table-2
  cells, fault-campaign runs, fleet repairs and hierarchy domains (all
  run through ``run_tasks``), and the racing degradation ladder's rungs
  (run through ``race_tasks`` on ``Supervisor.race``).

Consumers: ``run_tasks`` serves ``run_table2(workers=N)``,
``run_campaign(workers=N)``, ``run_controller(workers=N)`` and
``HierarchyConfig(workers=N)``; ``race_tasks`` serves
``solve_robust(workers=N)``.  The CLI's ``--workers`` flags on
``repro bench`` / ``repro simulate`` / ``repro controller`` /
``repro plan`` reach them.
"""

from .cache import CompileCache, default_compile_cache
from .fingerprint import (
    NetworkDelta,
    app_fingerprint,
    digest,
    leveling_fingerprint,
    network_delta,
    network_fingerprint,
)
from .supervisor import (
    START_METHOD,
    SupervisionReport,
    SupervisionStats,
    Supervisor,
    SupervisorConfig,
    TaskFailed,
    TaskQuarantined,
    resolve_workers,
)
from .workers import (
    CampaignResult,
    CampaignTask,
    CellResult,
    CellTask,
    DomainResult,
    DomainTask,
    RepairOutcome,
    RepairTask,
    RungJob,
    RungOutcome,
    race_tasks,
    run_campaign_task,
    run_cell_task,
    run_domain_task,
    run_rung_task,
    run_tasks,
)

__all__ = [
    "START_METHOD",
    "TaskFailed",
    "resolve_workers",
    "run_tasks",
    "race_tasks",
    "Supervisor",
    "SupervisorConfig",
    "SupervisionReport",
    "SupervisionStats",
    "TaskQuarantined",
    "CompileCache",
    "default_compile_cache",
    "digest",
    "app_fingerprint",
    "network_fingerprint",
    "leveling_fingerprint",
    "NetworkDelta",
    "network_delta",
    "RungJob",
    "RungOutcome",
    "run_rung_task",
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
]
