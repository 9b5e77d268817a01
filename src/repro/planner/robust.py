"""The graceful-degradation ladder (docs/ROBUSTNESS.md).

:func:`solve_robust` keeps producing deployment plans when the planner is
under time pressure or its search budgets are too small, by walking a
ladder of progressively cheaper configurations:

1. **full** — the leveled planner, run to optimality.
2. **anytime** — the same run's best-so-far *incumbent* complete plan,
   returned when the deadline or node budget cuts the search short
   (rungs 1 and 2 share one search; see ``PlannerConfig.anytime``).
3. **coarsened** — a retry with every level spec halved
   (:func:`coarsen_leveling`): fewer levels mean fewer ground actions,
   so compilation and search both shrink, at the price of plan quality.
4. **greedy** — the original greedy Sekitei (trivial leveling), the
   paper's Scenario A baseline: fast, worst-case-feasible, never optimal.

Every rung validates its plan with the exact executor (the planner's
``validate`` default), so whatever the ladder returns is a *correct*
deployment — only optimality degrades.  Failures that a lower rung cannot
fix stop the walk early: :class:`Unsolvable` is a logical gap and
:class:`ResourceInfeasible` only gets worse as levels coarsen (coarser
intervals raise worst-case consumption), so neither is retried.

The returned :class:`SolveOutcome` names the rung that produced the plan
and records why every earlier rung failed.  With telemetry attached, the
walk increments ``robust.attempt.<rung>`` per attempt,
``robust.fallback.<rung>`` for the winning rung, and ``robust.failed``
when no rung succeeds.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

from ..model import AppSpec, Leveling, LevelSpec
from ..network import Network
from ..obs import Telemetry, maybe_span
from .errors import ResourceInfeasible, SearchBudgetExceeded, Unsolvable
from .plan import Plan
from .planner import Planner, PlannerConfig

__all__ = [
    "RUNGS",
    "RungAttempt",
    "SolveOutcome",
    "coarsen_leveling",
    "solve_robust",
]

RUNGS = ("full", "anytime", "coarsened", "greedy")
"""Ladder rungs, best to worst (``full``/``anytime`` share one search)."""

# Share of the time budget the first (full/anytime) attempt may spend; the
# coarsened retry gets this share of whatever remains, and the greedy rung
# everything left.  Unused time rolls down the ladder automatically.
_FIRST_SHARE = 0.5
_COARSE_SHARE = 0.6
_MIN_SLICE_S = 1e-3


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
    """Result of a ladder walk: the plan (if any) and the full history."""

    plan: Plan | None
    rung: str = ""
    attempts: list[RungAttempt] = field(default_factory=list)

    @property
    def solved(self) -> bool:
        return self.plan is not None

    @property
    def degraded(self) -> bool:
        """True when a rung below ``full`` produced the plan."""
        return self.solved and self.rung != "full"

    def describe(self) -> str:
        lines = [a.describe() for a in self.attempts]
        if self.solved:
            lines.append(
                f"=> plan from rung '{self.rung}': {len(self.plan)} actions, "
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
    time_limit_s:
        Total wall-clock budget for the *whole walk* (overrides
        ``config.time_limit_s``).  The first attempt gets half, the
        coarsened retry most of the remainder, the greedy rung the rest;
        a rung that finishes early donates its leftover time down the
        ladder.  ``None`` means no deadline — lower rungs then only fire
        on node-budget exhaustion.
    telemetry:
        Metrics sink for the ``robust.*`` counters (overrides
        ``config.telemetry``).
    workers:
        ``1`` (the default) walks the ladder sequentially exactly as
        before.  ``> 1`` races the rungs on that many supervised worker
        processes instead (:meth:`repro.parallel.Supervisor.race`): every
        rung gets the *whole* time budget, the best rung that succeeds
        wins, and the losers are killed.  Same acceptance semantics — a
        lower rung's plan is only taken once every higher rung has
        failed — so the two modes
        differ only in wall clock and, under deadline pressure, in which
        rung wins (always recorded in ``SolveOutcome.rung``).

    Never raises :class:`~repro.planner.PlanningError` — an unsolvable
    walk is reported via ``SolveOutcome.plan is None``.  Configuration
    errors (:class:`~repro.model.SpecError`, ``ValueError``) and executor
    bugs (:class:`~repro.planner.ExecutionError`) still propagate.
    """
    base = config or PlannerConfig()
    leveling = leveling if leveling is not None else base.leveling
    telemetry = telemetry if telemetry is not None else base.telemetry
    if time_limit_s is None:
        time_limit_s = base.time_limit_s
    if workers > 1:
        return _solve_robust_racing(
            app, network, leveling, base, time_limit_s, telemetry, workers
        )
    t_walk = time.perf_counter()
    walk_end = t_walk + time_limit_s if time_limit_s is not None else None
    metrics = telemetry.metrics if telemetry is not None else None

    def remaining_s() -> float | None:
        if walk_end is None:
            return None
        return max(walk_end - time.perf_counter(), _MIN_SLICE_S)

    def slice_s(share: float) -> float | None:
        rem = remaining_s()
        if rem is None:
            return None
        return max(rem * share, _MIN_SLICE_S)

    outcome = SolveOutcome(plan=None)

    def attempt(rung: str, lev: Leveling | None, limit: float | None) -> Plan | None:
        """Run one rung; record the attempt; return its plan or None."""
        if metrics is not None:
            metrics.inc(f"robust.attempt.{rung}")
        cfg = replace(
            base,
            leveling=lev,
            time_limit_s=limit,
            anytime=True,
            telemetry=telemetry,
        )
        t0 = time.perf_counter()
        try:
            plan = Planner(cfg).solve(app, network)
        except (SearchBudgetExceeded, Unsolvable, ResourceInfeasible) as exc:
            outcome.attempts.append(
                RungAttempt(
                    rung=rung,
                    succeeded=False,
                    detail=str(exc).splitlines()[0],
                    error_type=type(exc).__name__,
                    elapsed_s=time.perf_counter() - t0,
                )
            )
            # A lower rung cannot repair a logical gap, and coarser levels
            # only raise worst-case consumption — stop the walk for both.
            if isinstance(exc, (Unsolvable, ResourceInfeasible)):
                raise _LadderStop from exc
            return None
        outcome.attempts.append(
            RungAttempt(
                rung=rung,
                succeeded=True,
                detail=f"{len(plan)} actions, cost lower bound {plan.cost_lb:g}"
                + (" (incumbent)" if plan.incumbent else ""),
                elapsed_s=time.perf_counter() - t0,
            )
        )
        return plan

    def finish(rung: str, plan: Plan) -> SolveOutcome:
        outcome.plan = plan
        outcome.rung = rung
        if metrics is not None:
            metrics.inc(f"robust.fallback.{rung}")
        return outcome

    try:
        # Rungs 1+2 — one search: optimal if it finishes, incumbent if cut.
        plan = attempt("full", leveling, slice_s(_FIRST_SHARE))
        if plan is not None:
            return finish("anytime" if plan.incumbent else "full", plan)

        # Rung 3 — coarsened leveling (skipped when nothing to coarsen).
        coarse = coarsen_leveling(leveling) if leveling is not None else None
        if coarse is not None:
            plan = attempt("coarsened", coarse, slice_s(_COARSE_SHARE))
            if plan is not None:
                return finish("coarsened", plan)

        # Rung 4 — the original greedy Sekitei (trivial leveling).
        plan = attempt("greedy", Leveling({}, name="greedy-trivial"), remaining_s())
        if plan is not None:
            return finish("greedy", plan)
    except _LadderStop:
        pass

    if metrics is not None:
        metrics.inc("robust.failed")
    return outcome


class _LadderStop(Exception):
    """Internal: a rung failed in a way no lower rung can fix."""


_FATAL = ("Unsolvable", "ResourceInfeasible")
_RACE_GRACE_S = 2.0  # race wall clock past the budget, for rung self-deadlines


def _fatal_rung(report):
    """The first rung outcome that proves no rung can succeed, if any."""
    return next(
        (r for r in report.values if r is not None and r.error_type in _FATAL), None
    )


def _race_decided(report) -> bool:
    """The racing ladder's acceptance policy (a ``Supervisor.race`` callback).

    Stop as soon as any rung proves that no rung can succeed
    (``Unsolvable``/``ResourceInfeasible``, as in the sequential walk) or
    raises.  Otherwise a rung's plan is accepted only once every better
    rung has failed — a greedy plan arriving first never preempts a full
    solve that is still running.
    """
    if report.failures or _fatal_rung(report) is not None:
        return True
    for index, res in enumerate(report.values):
        if not report.settled(index):
            return False
        if res is not None and res.plan is not None:
            return True
    return False


def _solve_robust_racing(
    app: AppSpec,
    network: Network,
    leveling: Leveling | None,
    base: PlannerConfig,
    time_limit_s: float | None,
    telemetry: Telemetry | None,
    workers: int,
) -> SolveOutcome:
    """Race the ladder rungs on a supervisor (``solve_robust(workers>1)``).

    Each rung is one payload of :meth:`~repro.parallel.Supervisor.race`,
    in priority order, with the whole time budget; :func:`_race_decided`
    is the acceptance policy, and the race gives up ``_RACE_GRACE_S``
    past the budget.  A crashing rung is retried and, as poison,
    quarantined by the supervisor.  The winner's plan travels home as a
    :class:`~repro.parallel.PlanEnvelope` and is rebound to a problem
    compiled in the parent through the warm-start cache; only the
    winner's worker metrics are merged (the losers' work was cancelled,
    so counting it would misstate the cost of the returned plan).
    """
    from ..parallel import (
        RungJob,
        Supervisor,
        default_compile_cache,
        resolve_workers,
        run_rung_task,
    )

    metrics = telemetry.metrics if telemetry is not None else None
    # Each racing rung gets the whole budget and runs in anytime mode, so
    # the full rung degrades to its own incumbent exactly as rung 2 does.
    child_config = replace(
        base, time_limit_s=time_limit_s, anytime=True, telemetry=None
    )
    rungs = [("full", leveling)]
    coarse = coarsen_leveling(leveling) if leveling is not None else None
    if coarse is not None:
        rungs.append(("coarsened", coarse))
    rungs.append(("greedy", Leveling({}, name="greedy-trivial")))

    # Dispatch span: racing rungs inherit its context, so the winner's
    # remote spans stitch under it in the merged trace.
    with maybe_span(telemetry, "robust.race", workers=workers, rungs=len(rungs)):
        trace = telemetry.current_context() if telemetry is not None else None
        jobs = [
            RungJob(
                rung=rung,
                app=app,
                network=network,
                leveling=lev,
                config=child_config,
                with_metrics=metrics is not None,
                trace=trace,
            )
            for rung, lev in rungs
        ]
        with Supervisor(
            resolve_workers(workers, len(jobs)), telemetry=telemetry
        ) as sup:
            report = sup.race(
                run_rung_task,
                jobs,
                accept=_race_decided,
                deadline_s=(
                    time_limit_s + _RACE_GRACE_S if time_limit_s is not None else None
                ),
            )
    if report.failures:  # a rung raised: a bug, not a planner verdict
        report.raise_on_failure()

    fatal = _fatal_rung(report)
    winner = None if fatal else next(
        (r for r in report.values if r is not None and r.plan is not None), None
    )
    if winner is not None:
        cancelled = f"lost race to {winner.rung}"
    elif fatal is not None:
        cancelled = f"aborted: {fatal.rung} is {fatal.error_type}"
    else:
        cancelled = "race deadline expired"
    quarantined = {q.index: q.reason for q in report.quarantined}
    outcome = SolveOutcome(plan=None)
    for index, job in enumerate(jobs):
        res = report.values[index]
        if res is not None:
            counter = "attempt"
            attempt = RungAttempt(
                job.rung, res.plan is not None, res.detail, res.error_type, res.elapsed_s
            )
        elif index in quarantined:
            counter = ""
            attempt = RungAttempt(job.rung, False, quarantined[index], "Quarantined")
        else:
            counter = "cancelled"
            attempt = RungAttempt(job.rung, False, cancelled, "Cancelled")
        outcome.attempts.append(attempt)
        if metrics is not None and counter:
            metrics.inc(f"robust.{counter}.{job.rung}")

    if winner is None:
        if metrics is not None:
            metrics.inc("robust.failed")
        return outcome

    problem = default_compile_cache().compile(
        app, network, dict(rungs)[winner.rung], metrics=metrics
    )
    plan = winner.plan.restore(problem)
    outcome.plan = plan
    outcome.rung = (
        "anytime" if winner.rung == "full" and plan.incumbent else winner.rung
    )
    if metrics is not None:
        metrics.inc(f"robust.fallback.{outcome.rung}")
        telemetry.stitch_snapshot(winner.metrics)
        winner.metrics.merge_into(metrics)
    return outcome
