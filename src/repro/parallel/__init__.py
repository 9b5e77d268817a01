"""Process-parallel execution (docs/PERFORMANCE.md, "Parallel execution").

Spawn-safe building blocks for running planner work across processes:

* :class:`Supervisor` (:mod:`repro.parallel.supervisor`) — the one
  process manager: persistent spawn-started workers running either a
  deterministically sharded batch (``run``/``map``) or a priority race
  (``race``), with death detection, respawn, retry with a budget,
  poison quarantine (:class:`TaskQuarantined`), and in-process
  fallback, reported via :class:`SupervisionReport`; task exceptions
  surface as :class:`TaskFailed` (docs/ROBUSTNESS.md).
* Envelopes (:mod:`repro.parallel.envelope`) — the pickleable contract
  between parent and workers; :func:`check_picklable` names the exact
  offending field when something unpicklable sneaks in.
* :class:`CompileCache` (:mod:`repro.parallel.cache`) — warm-start
  compile cache keyed by content fingerprints
  (:mod:`repro.parallel.fingerprint`), one per worker process.
* Worker task functions (:mod:`repro.parallel.workers`) — the
  module-level entry points the supervisor actually runs (Table-2
  cells, fault-campaign runs, fleet repairs, hierarchy domains, and
  the racing degradation ladder's rungs).

Consumers: ``run_table2(workers=N)``, ``run_campaign(workers=N)``,
``solve_robust(workers=N)``, and the ``--workers`` CLI flags on
``repro bench`` / ``repro simulate`` / ``repro plan --fallback``.
"""

from .cache import CompileCache, default_compile_cache
from .envelope import (
    ENVELOPE_TYPES,
    EnvelopeError,
    MetricsSnapshot,
    PlanEnvelope,
    ProblemEnvelope,
    check_picklable,
)
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
    run_campaign_task,
    run_cell_task,
    run_domain_task,
    run_repair_task,
    run_rung_task,
)

__all__ = [
    "START_METHOD",
    "TaskFailed",
    "resolve_workers",
    "Supervisor",
    "SupervisorConfig",
    "SupervisionReport",
    "SupervisionStats",
    "TaskQuarantined",
    "CompileCache",
    "default_compile_cache",
    "EnvelopeError",
    "check_picklable",
    "ProblemEnvelope",
    "PlanEnvelope",
    "MetricsSnapshot",
    "ENVELOPE_TYPES",
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
    "run_repair_task",
    "DomainTask",
    "DomainResult",
    "run_domain_task",
]
