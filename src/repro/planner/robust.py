"""The solve ladder: one rung list, one runner (docs/ROBUSTNESS.md).

Every path from a spec to a validated plan that may fall back — the
graceful-degradation walk of :func:`solve_robust`, its race across worker
processes, :func:`~repro.hierarchy.solve_hierarchical` and ``repro plan``
— runs the rung list built by :func:`ladder` through :func:`run_ladder`:

1. **hierarchical** — domain decomposition (:mod:`repro.hierarchy`);
2. **widened** — flat planning on the union subnetwork, only after a
   contract or stitch miss (a partition or planner failure would recur);
3. **full** — the leveled planner, run to optimality; with ``anytime``
   on, a search cut short returns its best-so-far *incumbent* plan (the
   **anytime** tier);
4. **coarsened** — every level spec halved (:func:`coarsen_leveling`);
5. **greedy** — the original greedy Sekitei (trivial leveling), the
   paper's Scenario A baseline: fast, worst-case-feasible, never optimal.

Rungs 1–2 are in the list only when ``PlannerConfig.hierarchy`` is set,
rungs 4–5 only when the caller degrades.  Every rung validates its plan
with the exact executor, so only optimality degrades, never correctness.
One stop policy (:func:`_verdict`) decides the walk and the race alike: a
rung's plan is taken once every better rung has failed, and
:class:`Unsolvable` or :class:`ResourceInfeasible` on the whole network
stops the ladder — a lower rung cannot repair a logical gap, and coarser
levels only raise worst-case consumption.

With telemetry attached the runner counts ``robust.attempt.<rung>``,
``robust.fallback.<tier>`` for the plan's tier, ``robust.cancelled.<rung>``
for race losers, ``robust.failed``, and ``hierarchy.stitch.retries`` for
every rung walked after the hierarchical one missed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

from ..model import AppSpec, Leveling, LevelSpec
from ..network import Network
from ..network.partition import PartitionError
from ..obs import Telemetry, maybe_span
from .errors import ResourceInfeasible, SearchBudgetExceeded, Unsolvable
from .plan import Plan
from .planner import Planner, PlannerConfig

__all__ = [
    "RUNGS",
    "Rung",
    "RungAttempt",
    "SolveOutcome",
    "coarsen_leveling",
    "ladder",
    "run_ladder",
    "solve_robust",
]

RUNGS = ("full", "anytime", "coarsened", "greedy")
"""Quality tiers of a ladder plan, best to worst (``SolveOutcome.rung``)."""

_FATAL = ("Unsolvable", "ResourceInfeasible")
_MIN_SLICE_S = 1e-3
_RACE_GRACE_S = 2.0  # race wall clock past the budget, for rung self-deadlines


@dataclass(frozen=True)
class Rung:
    """One rung of the ladder, as plain picklable data."""

    name: str
    leveling: Leveling | None
    scope: str = "full"  # or "union": backbone plus the stub domains the app touches
    decompose: bool = False  # plan by domain decomposition (repro.hierarchy)
    after: tuple[str, ...] = ()  # if set, applies only right after one of these failures
    share: float = 1.0  # of the walk's remaining time budget


@dataclass
class RungAttempt:
    """One rung of the ladder: what was tried and how it went."""

    rung: str
    succeeded: bool
    detail: str = ""
    error_type: str = ""
    elapsed_s: float = 0.0

    def describe(self) -> str:
        status = "ok" if self.succeeded else f"failed ({self.error_type})"
        line = f"{self.rung}: {status} in {self.elapsed_s:.3f}s"
        if self.detail:
            line += f" — {self.detail}"
        return line


@dataclass
class SolveOutcome:
    """Result of a ladder run: the plan (if any) and the full history."""

    plan: Plan | None
    winner: str = ""
    """Name of the rung that produced the plan."""
    attempts: list[RungAttempt] = field(default_factory=list)

    @property
    def solved(self) -> bool:
        return self.plan is not None

    @property
    def rung(self) -> str:
        """The plan's tier in :data:`RUNGS` (``""`` unsolved): the rungs
        above ``coarsened`` plan at full leveling, so they rank ``full``,
        or ``anytime`` when the search returned its incumbent."""
        if self.plan is None:
            return ""
        if self.winner in ("coarsened", "greedy"):
            return self.winner
        return "anytime" if self.plan.incumbent else "full"

    @property
    def degraded(self) -> bool:
        """True when the plan's tier is below ``full``."""
        return self.solved and self.rung != "full"

    def describe(self) -> str:
        lines = [a.describe() for a in self.attempts]
        if self.solved:
            label = self.rung if self.winner == "full" else self.winner
            lines.append(
                f"=> plan from rung '{label}': {len(self.plan)} actions, "
                f"cost lower bound {self.plan.cost_lb:g}"
            )
        else:
            lines.append("=> no plan from any rung")
        return "\n".join(lines)


def coarsen_leveling(leveling: Leveling) -> Leveling | None:
    """A cheaper leveling: every spec keeps every other cutpoint.

    The highest cutpoint always survives (it caps utilization, which is
    what keeps resource-constrained instances feasible at all); specs with
    a single cutpoint are unchanged.  Returns ``None`` when nothing can be
    coarsened — the caller should skip the rung rather than re-solve an
    identical problem.
    """
    specs: dict[str, LevelSpec] = {}
    changed = False
    for var, spec in leveling.specs.items():
        cuts = spec.cutpoints
        if len(cuts) <= 1:
            specs[var] = spec
            continue
        kept = tuple(reversed(cuts[::-1][::2]))
        specs[var] = LevelSpec(kept)
        changed = True
    if not changed:
        return None
    return Leveling(specs, name=f"{leveling.name}-coarse")


def ladder(
    leveling: Leveling | None, *, hierarchy: bool = False, degrade: bool = True
) -> list[Rung]:
    """The rung list, best first — the one place a ladder is assembled."""
    rungs = []
    if hierarchy:
        rungs += [
            Rung("hierarchical", leveling, "union", decompose=True, share=0.5),
            Rung("widened", leveling, "union", after=("ContractError", "StitchError"), share=0.5),
        ]
    rungs.append(Rung("full", leveling, share=0.5 if degrade else 1.0))
    if degrade:
        coarse = coarsen_leveling(leveling) if leveling is not None else None
        if coarse is not None:
            rungs.append(Rung("coarsened", coarse, share=0.6))
        rungs.append(Rung("greedy", Leveling({}, name="greedy-trivial")))
    return rungs


def solve_robust(
    app: AppSpec,
    network: Network,
    leveling: Leveling | None = None,
    *,
    config: PlannerConfig | None = None,
    time_limit_s: float | None = None,
    telemetry: Telemetry | None = None,
    workers: int = 1,
) -> SolveOutcome:
    """Walk the degradation ladder until some rung produces a valid plan.

    Parameters
    ----------
    config:
        Base planner configuration; the ladder overrides ``leveling``,
        ``time_limit_s``, ``anytime``, and ``telemetry`` per rung and
        leaves everything else (budgets, heuristic, validation) alone.
        With ``config.hierarchy`` set the ladder starts with the
        hierarchical and widened rungs.
    time_limit_s:
        Total wall-clock budget for the *whole walk* (overrides
        ``config.time_limit_s``), split by each rung's ``share`` of what
        remains; ``None`` means no deadline — lower rungs then only fire
        on node-budget exhaustion.
    telemetry:
        Metrics sink for the ``robust.*`` counters (overrides
        ``config.telemetry``).
    workers:
        ``1`` (the default) walks the ladder sequentially.  ``> 1`` races
        the rungs on that many supervised worker processes instead
        (:meth:`repro.parallel.Supervisor.race`): every rung gets the
        *whole* time budget, the best rung that succeeds wins, and the
        losers are killed.  Same stop policy, so the two modes differ
        only in wall clock and, under deadline pressure, in which rung
        wins (always recorded in ``SolveOutcome.winner``).

    Never raises :class:`~repro.planner.PlanningError` — an unsolvable
    walk is reported via ``SolveOutcome.plan is None``.  Configuration
    errors (:class:`~repro.model.SpecError`, ``ValueError``) and executor
    bugs (:class:`~repro.planner.ExecutionError`) still propagate.
    """
    base = config or PlannerConfig()
    leveling = leveling if leveling is not None else base.leveling
    base = replace(
        base,
        leveling=leveling,
        anytime=True,
        telemetry=telemetry if telemetry is not None else base.telemetry,
        time_limit_s=time_limit_s if time_limit_s is not None else base.time_limit_s,
    )
    rungs = ladder(leveling, hierarchy=base.hierarchy is not None)
    return run_ladder(app, network, rungs, base, workers=workers)


def run_ladder(
    app: AppSpec,
    network: Network,
    rungs: list[Rung],
    config: PlannerConfig,
    *,
    workers: int = 1,
    reraise: bool = False,
    region=None,
) -> SolveOutcome:
    """Run ``rungs`` best first until the stop policy decides.

    ``config.time_limit_s`` budgets the whole walk, ``config.telemetry``
    gets the counters, and ``config.hierarchy`` sets the hierarchical
    rung's domain fan-out.  ``workers > 1`` races the rungs instead.
    ``reraise`` makes a walk that finds no plan raise the last rung's error;
    ``region`` shares one :class:`repro.hierarchy.solve.Region`.
    """
    if workers > 1:
        return _race(app, network, rungs, config, workers)
    telemetry = config.telemetry
    metrics = telemetry.metrics if telemetry is not None else None
    if region is None:
        region = _region(app, network, rungs, telemetry)
    budget = config.time_limit_s
    walk_end = time.perf_counter() + budget if budget is not None else None
    attempts: list[RungAttempt | None] = [None] * len(rungs)
    outcome = SolveOutcome(plan=None)
    error = None
    while True:
        decided, index = _verdict(rungs, attempts)
        if decided:
            break
        rung = rungs[index]
        if metrics is not None:
            metrics.inc(f"robust.attempt.{rung.name}")
            if outcome.attempts and rungs[0].decompose:
                metrics.inc("hierarchy.stitch.retries")
        rung_config = config
        if walk_end is not None:
            remaining = max(walk_end - time.perf_counter(), _MIN_SLICE_S)
            limit = max(remaining * rung.share, _MIN_SLICE_S)
            rung_config = replace(config, time_limit_s=limit)
        plan, attempts[index], error = attempt_rung(rung, app, network, rung_config, region)
        outcome.attempts.append(attempts[index])
        if plan is not None:
            outcome.plan, outcome.winner = plan, rung.name
    if outcome.plan is None:
        if metrics is not None:
            metrics.inc("robust.failed")
        if reraise and error is not None:
            raise error
    elif metrics is not None:
        metrics.inc(f"robust.fallback.{outcome.rung}")
    return outcome


def attempt_rung(
    rung: Rung, app: AppSpec, network: Network, config: PlannerConfig, region=None
) -> tuple[Plan | None, RungAttempt, Exception | None]:
    """Run one rung, in the walk or a race worker: ``(plan, record, error)``.

    Planner verdicts and decomposition misses come back as data; anything
    else (spec errors, executor bugs) propagates.
    """
    from ..hierarchy.contracts import ContractError
    from ..hierarchy.stitch import StitchError

    if region is None:
        region = _region(app, network, [rung], config.telemetry)
    rung_config = replace(config, leveling=rung.leveling, hierarchy=None)
    t0 = time.perf_counter()
    try:
        if rung.decompose:
            from ..hierarchy.solve import plan_decomposed

            workers = config.hierarchy.workers if config.hierarchy is not None else 1
            plan = plan_decomposed(app, network, region, rung_config, workers)
        else:
            scope = network if rung.scope == "full" else region.union_network()
            plan = Planner(rung_config).solve(app, scope)
    except (
        SearchBudgetExceeded, Unsolvable, ResourceInfeasible,
        PartitionError, ContractError, StitchError,
    ) as exc:
        detail = str(exc).partition("\n")[0]
        elapsed = time.perf_counter() - t0
        return None, RungAttempt(rung.name, False, detail, type(exc).__name__, elapsed), exc
    detail = f"{len(plan)} actions, cost lower bound {plan.cost_lb:g}"
    if plan.incumbent:
        detail += " (incumbent)"
    return plan, RungAttempt(rung.name, True, detail, "", time.perf_counter() - t0), None


def _region(app, network, rungs, telemetry):
    """A fresh partition holder when some rung plans on the union scope."""
    if all(rung.scope == "full" for rung in rungs):
        return None
    from ..hierarchy.solve import Region

    return Region(app, network, telemetry)


def _verdict(rungs: list[Rung], attempts: list[RungAttempt | None]) -> tuple[bool, int | None]:
    """The ladder's stop policy, shared by the walk and the race.

    ``attempts[i]`` is rung ``i``'s record, or ``None`` while it has not
    settled.  Rungs that do not apply after the previous failure are
    passed over; a rung's plan is accepted only once every better rung
    has failed — a greedy plan arriving first never preempts a full solve
    still running — and an ``Unsolvable``/``ResourceInfeasible`` verdict
    on the whole network decides the ladder with no plan.  Returns
    ``(True, winner index or None)`` once decided, else ``(False, index
    of the best rung still awaited)``.
    """
    previous = ""
    for index, (rung, attempt) in enumerate(zip(rungs, attempts)):
        if rung.after and previous not in rung.after:
            continue
        if attempt is None:
            return False, index
        if attempt.succeeded:
            return True, index
        if rung.scope == "full" and attempt.error_type in _FATAL:
            return True, None
        previous = attempt.error_type
    return True, None


def _race_attempts(rungs: list[Rung], report) -> list[RungAttempt | None]:
    """Each racing rung's record so far (``None`` while it runs)."""
    quarantined = {q.index: q.reason for q in report.quarantined}
    return [
        res.attempt if res is not None
        else RungAttempt(rung.name, False, quarantined[i], "Quarantined") if i in quarantined
        else None
        for i, (rung, res) in enumerate(zip(rungs, report.values))
    ]


def _race(
    app: AppSpec, network: Network, rungs: list[Rung], config: PlannerConfig, workers: int
) -> SolveOutcome:
    """Race the rungs on a supervisor (``run_ladder(workers>1)``).

    Each rung is one payload of :meth:`~repro.parallel.Supervisor.race`,
    in priority order, with the whole time budget; :func:`_verdict` is
    the acceptance policy, and the race gives up ``_RACE_GRACE_S`` past
    the budget.  The winner's plan travels home as a
    :class:`~repro.parallel.PlanEnvelope` and is rebound to a problem
    compiled in the parent, through the warm-start cache, from the
    winning rung's inputs: leveling, bound overrides, strictness, scope.
    Only the winner's worker metrics are merged (the losers' work was
    cancelled, so counting it would misstate the cost of the plan).
    """
    from ..parallel import RungJob, Supervisor, default_compile_cache, resolve_workers
    from ..parallel import run_rung_task

    telemetry = config.telemetry
    metrics = telemetry.metrics if telemetry is not None else None
    budget = config.time_limit_s
    child = replace(config, telemetry=None)
    if child.hierarchy is not None:
        # Supervisor workers are daemonic and cannot start a nested
        # supervisor; domain plans are byte-identical at any width.
        child = replace(child, hierarchy=replace(child.hierarchy, workers=1))

    # Dispatch span: racing rungs inherit its context, so the winner's
    # remote spans stitch under it in the merged trace.
    with maybe_span(telemetry, "robust.race", workers=workers, rungs=len(rungs)):
        trace = telemetry.current_context() if telemetry is not None else None
        jobs = [RungJob(rung, app, network, child, metrics is not None, trace) for rung in rungs]
        with Supervisor(resolve_workers(workers, len(jobs)), telemetry=telemetry) as sup:
            report = sup.race(
                run_rung_task,
                jobs,
                accept=lambda r: bool(r.failures)
                or _verdict(rungs, _race_attempts(rungs, r))[0],
                deadline_s=budget + _RACE_GRACE_S if budget is not None else None,
            )
    if report.failures:  # a rung raised: a bug, not a planner verdict
        report.raise_on_failure()

    settled = _race_attempts(rungs, report)
    decided, winner = _verdict(rungs, settled)
    if winner is not None:
        cancelled = f"lost race to {rungs[winner].name}"
    elif decided:
        cancelled = "aborted: no rung can succeed"
    else:
        cancelled = "race deadline expired"
    outcome = SolveOutcome(plan=None)
    for index, rung in enumerate(rungs):
        attempt = settled[index]
        if attempt is None:
            attempt = RungAttempt(rung.name, False, cancelled, "Cancelled")
        outcome.attempts.append(attempt)
        if metrics is not None and attempt.error_type != "Quarantined":
            kind = "cancelled" if attempt.error_type == "Cancelled" else "attempt"
            metrics.inc(f"robust.{kind}.{rung.name}")

    if winner is None:
        if metrics is not None:
            metrics.inc("robust.failed")
        return outcome

    rung = rungs[winner]
    region = _region(app, network, [rung], None)
    scope = network if region is None else region.union_network()
    problem = default_compile_cache().compile(
        app, scope, rung.leveling, config.bound_overrides or None, config.strict, metrics=metrics
    )
    result = report.values[winner]
    outcome.plan, outcome.winner = result.plan.restore(problem), rung.name
    if metrics is not None:
        metrics.inc(f"robust.fallback.{outcome.rung}")
        telemetry.stitch_snapshot(result.metrics)
        result.metrics.merge_into(metrics)
    return outcome
