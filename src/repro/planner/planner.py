"""The leveled Sekitei planner facade.

Runs the three phases of §3.2 — PLRG (per-proposition costs), SLRG (set
costs), RG (resource-aware regression A*) — over a compiled problem and
returns a validated, cost-optimized :class:`Plan`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from ..hierarchy import HierarchyConfig

from ..compile import CompiledProblem, compile_problem
from ..model import AppSpec, Leveling
from ..network import Network
from ..obs import SearchTrace, Telemetry, maybe_span
from .deadline import Deadline
from .errors import (
    DeadlineExceeded,
    ExecutionError,
    ResourceInfeasible,
    SearchBudgetExceeded,
    Unsolvable,
)
from .executor import execute_plan
from .plan import Plan
from .plrg import build_plrg
from .rg import regression_search
from .slrg import SLRG
from .stats import PlannerStats

__all__ = ["Heuristic", "PlannerConfig", "Planner"]


class Heuristic(Enum):
    """RG heuristic choice (the paper uses SLRG; the rest are ablations)."""

    SLRG = "slrg"
    PLRG_MAX = "plrg-max"
    BLIND = "blind"


@dataclass
class PlannerConfig:
    """Knobs for one planner run.

    Attributes
    ----------
    leveling:
        The resource-level assignment (Table 1 scenario).  ``None`` uses
        the application's inline level declarations (Fig. 6 style); an
        empty leveling reproduces the original greedy Sekitei.
    heuristic:
        RG guidance: the paper's SLRG, the PLRG ``hmax`` bound, or blind
        (uniform-cost) search.
    slrg_node_budget / rg_node_budget:
        Safety bounds on the search phases.  The RG budget counts
        created nodes: nodes whose tails replayed cleanly, not every
        queued one.
    time_limit_s / phase_time_limit_s:
        Wall-clock deadlines (docs/ROBUSTNESS.md).  ``time_limit_s``
        bounds the whole :meth:`Planner.solve` call (measured from entry,
        so internal compilation counts against it); ``phase_time_limit_s``
        additionally bounds each search phase.  The PLRG/SLRG/RG loops
        poll the deadline with strided clock reads; on expiry the planner
        returns the anytime incumbent (see ``anytime``) or raises
        :class:`DeadlineExceeded`.
    anytime:
        Whether exhaustion (deadline or RG node budget) may return the
        best-so-far *incumbent* complete plan — flagged via
        ``Plan.incumbent`` — instead of raising.  ``None`` (default)
        enables anytime mode exactly when a time limit is set, keeping
        budget-only runs strict; ``True``/``False`` force it.
    validate:
        When true (default), the returned plan has been executed exactly
        and a failure raises :class:`ExecutionError` instead of returning
        an invalid plan.
    bound_overrides:
        Optional static property-bound overrides for non-converging apps.
    strict:
        Run the spec linter (:mod:`repro.lint`) before compiling and
        refuse — with a :class:`~repro.model.SpecError` listing every
        finding — when it reports errors.
    """

    leveling: Leveling | None = None
    heuristic: Heuristic = Heuristic.SLRG
    slrg_node_budget: int = 50_000
    rg_node_budget: int = 500_000
    time_limit_s: float | None = None
    phase_time_limit_s: float | None = None
    anytime: bool | None = None
    validate: bool = True
    strict: bool = False
    bound_overrides: dict[str, float] = field(default_factory=dict)
    trace: bool = False
    """Record a bounded RG search trace on the returned plan
    (``plan.trace``): node creations, expansions, prunes with reasons."""
    telemetry: Telemetry | None = None
    """Full observability (see :mod:`repro.obs` and docs/OBSERVABILITY.md):
    phase spans, the metrics registry, and a per-run search trace.  ``None``
    (the default) disables every hook; the guarded hot paths then cost
    nothing beyond a handful of ``is not None`` checks, and each phase is
    timed by a detached span that is recorded nowhere."""
    branch_all_props: bool = True
    """RG branching rule: True (default) regresses achievers of every open
    proposition — the paper's rule, required for optimality when one action
    (e.g. the Splitter) must cover several open subgoals at once.  False
    regresses only the hardest open proposition: faster, complete for
    feasibility on chain-structured problems, but may return suboptimal
    plans when multi-output components feed parallel branches."""
    hierarchy: "HierarchyConfig | None" = None
    """Hierarchical domain decomposition (:mod:`repro.hierarchy`,
    docs/ALGORITHM.md): when set and :meth:`Planner.solve` is given an
    ``app`` and a transit-stub ``network``, the solve partitions the
    network into stub domains, plans the backbone over an abstracted
    network, fans the per-domain subproblems out, and stitches — falling
    back to flat planning whenever any stage misses.  ``None`` (default)
    always plans flat.  Ignored when a pre-compiled ``problem`` is
    passed (the compiled problem already fixed its scope)."""
    static_prune: str | None = None
    """Certified static pruning (:mod:`repro.analysis`, docs/ANALYSIS.md):
    ``None``/``"off"`` disables it; ``"dead"`` excludes provably unfirable
    ground actions before the PLRG; ``"symmetry"`` enables the RG's
    verified symmetry sibling prune; ``"full"`` enables both.  Plan cost
    is preserved exactly in every mode (the differential audit asserts
    this over all bundled domains).  Reuses ``problem.analysis`` when the
    problem was compiled with ``analyze=True`` (e.g. via the warm-start
    compile cache); otherwise the analysis runs inline and is counted in
    ``stats.analysis_ms``, never in search time."""


class Planner:
    """Resource-aware, cost-optimizing CPP planner (leveled Sekitei)."""

    def __init__(self, config: PlannerConfig | None = None):
        self.config = config or PlannerConfig()

    def compile(self, app: AppSpec, network: Network) -> CompiledProblem:
        """Compile only (exposed for inspection and benchmarks)."""
        return compile_problem(
            app,
            network,
            self.config.leveling,
            self.config.bound_overrides or None,
            strict=self.config.strict,
        )

    def solve(
        self,
        app: AppSpec | None = None,
        network: Network | None = None,
        problem: CompiledProblem | None = None,
    ) -> Plan:
        """Find a cost-optimal (w.r.t. level lower bounds) deployment plan.

        Either pass ``app`` and ``network``, or a pre-compiled ``problem``.

        Raises
        ------
        Unsolvable
            The goal is logically unreachable.
        ResourceInfeasible
            Logically reachable but no plan survives resource constraints
            (the greedy planner's Scenario 1 failure).
        SearchBudgetExceeded
            A phase exceeded its node budget (and anytime mode had no
            incumbent to return).
        DeadlineExceeded
            A wall-clock limit expired (and anytime mode had no incumbent
            to return); carries the phase, elapsed time, and node counts.
        ExecutionError
            Validation of the found plan failed (indicates a planner bug;
            never expected).
        """
        tele = self.config.telemetry
        if self.config.hierarchy is not None and problem is None:
            if app is None or network is None:
                raise ValueError("pass either problem= or both app= and network=")
            # Lazy import: repro.hierarchy imports repro.planner.
            from ..hierarchy import solve_hierarchical

            # The flat rung raises when no plan is found.
            return solve_hierarchical(
                app, network, config=self.config.hierarchy, planner_config=self.config
            ).plan
        # The total deadline is anchored at entry, so internal compilation
        # counts against time_limit_s even though only the search loops
        # poll the clock (docs/ROBUSTNESS.md).
        total_deadline = (
            Deadline.after(self.config.time_limit_s)
            if self.config.time_limit_s is not None
            else None
        )
        allow_incumbent = (
            self.config.anytime
            if self.config.anytime is not None
            else total_deadline is not None or self.config.phase_time_limit_s is not None
        )

        def phase_deadline() -> Deadline | None:
            """Tightest of the total and a fresh per-phase deadline."""
            if self.config.phase_time_limit_s is None:
                return total_deadline
            return Deadline.after(self.config.phase_time_limit_s).tightest(total_deadline)

        # Per-run observability state is reset up front, so reusing one
        # Planner (or one Telemetry) across solve() calls never leaks a
        # previous run's trace events or stat gauges into this one.
        if tele is not None:
            search_trace = tele.begin_run()
            if search_trace is None and self.config.trace:
                search_trace = SearchTrace()
        else:
            search_trace = SearchTrace() if self.config.trace else None

        if problem is None:
            if app is None or network is None:
                raise ValueError("pass either problem= or both app= and network=")
            with maybe_span(tele, "compile", app=app.name, network=network.name) as sp:
                problem = self.compile(app, network)
                sp.attrs["actions"] = len(problem.actions)
                sp.attrs["templates"] = problem.ground_templates
                sp.attrs["reach_pruned"] = problem.reachability_pruned

        with maybe_span(
            tele,
            "plan.solve",
            app=problem.app.name,
            network=problem.network.name,
            leveling=problem.leveling.name,
        ) as solve_span:
            # Phase times are span durations.  total_ms sums the search
            # phases (plus an inline analysis), so it is search-only on both
            # call paths; compile time is reported once, as compile_ms.
            stats = PlannerStats(
                total_actions=len(problem.actions),
                compile_ms=problem.compile_seconds * 1e3,
            )

            mode = self.config.static_prune
            if mode not in (None, "off", "dead", "symmetry", "full"):
                raise ValueError(
                    f"static_prune must be one of off/dead/symmetry/full, got {mode!r}"
                )
            dead_actions: frozenset[int] = frozenset()
            sym_hints = None
            inline_analysis_ms = 0.0
            if mode in ("dead", "symmetry", "full"):
                analysis = problem.analysis
                if analysis is None:
                    # Lazy import: repro.analysis imports repro.compile.
                    from ..analysis import analyze_problem

                    with maybe_span(tele, "analysis") as analysis_span:
                        analysis = analyze_problem(problem)
                    problem.analysis = analysis
                    inline_analysis_ms = analysis_span.duration_ms
                if mode in ("dead", "full"):
                    dead_actions = analysis.dead_indices()
                if mode in ("symmetry", "full"):
                    sym_hints = analysis.hints
                stats.static_pruned = len(dead_actions)
                stats.analysis_ms = analysis.analysis_seconds * 1e3
                if tele is not None:
                    m = tele.metrics
                    m.counter("analysis.dead_actions").inc(len(dead_actions))
                    m.set_gauge(
                        "analysis.sym.classes", len(analysis.symmetry.node_classes)
                    )
                    m.set_gauge(
                        "analysis.envelope.tightened", analysis.envelopes.bounded
                    )
                    class_hist = m.histogram("analysis.sym.class_size")
                    for cls in analysis.symmetry.node_classes:
                        class_hist.observe(len(cls.members))

            try:
                try:
                    with maybe_span(tele, "plrg") as plrg_span:
                        plrg = build_plrg(
                            problem,
                            deadline=phase_deadline(),
                            exclude_actions=dead_actions,
                        )
                        plrg_span.attrs.update(
                            prop_nodes=plrg.prop_nodes,
                            action_nodes=plrg.action_nodes,
                            usable_actions=len(plrg.usable_actions),
                        )
                except Unsolvable:
                    if problem.logically_solvable:
                        # The goal has logical support, but best-value reachability
                        # pruning removed it: a resource conflict, not a modelling
                        # gap (the greedy Scenario 1 failure, detected statically).
                        from ..compile import diagnose

                        detail = str(diagnose(problem))
                        raise ResourceInfeasible(
                            "goal unreachable under best-case resource propagation "
                            f"({problem.reachability_pruned} actions pruned)\n{detail}"
                        ) from None
                    raise
                stats.plrg_ms = plrg_span.duration_ms
                stats.plrg_prop_nodes = plrg.prop_nodes
                stats.plrg_action_nodes = plrg.action_nodes

                slrg = SLRG(
                    problem,
                    plrg,
                    node_budget=self.config.slrg_node_budget,
                    telemetry=tele,
                    deadline=phase_deadline(),
                )
                with maybe_span(tele, "slrg", heuristic=self.config.heuristic.value) as slrg_span:
                    if self.config.heuristic is Heuristic.SLRG:
                        # Phase 2 proper: price the goal set, warming the cache.
                        slrg.query(frozenset(problem.goal_prop_ids))
                        heuristic = slrg.query
                    elif self.config.heuristic is Heuristic.PLRG_MAX:
                        heuristic = plrg.set_cost
                    else:
                        heuristic = lambda props: 0.0  # noqa: E731 - blind search
                stats.slrg_ms = slrg_span.duration_ms

                # SLRG queries issued from inside the RG loop observe the
                # RG phase's deadline, not the (already spent) SLRG one.
                rg_deadline = phase_deadline()
                slrg.deadline = rg_deadline
                with maybe_span(tele, "rg", node_budget=self.config.rg_node_budget) as rg_span:
                    result = regression_search(
                        problem,
                        heuristic,
                        plrg.usable_actions,
                        node_budget=self.config.rg_node_budget,
                        branch_all_props=self.config.branch_all_props,
                        prop_rank=plrg.cost,
                        trace=search_trace,
                        metrics=tele.metrics if tele is not None else None,
                        deadline=rg_deadline,
                        allow_incumbent=allow_incumbent,
                        symmetry=sym_hints,
                    )
                    rg_span.attrs.update(
                        nodes_created=result.nodes_created,
                        nodes_expanded=result.nodes_expanded,
                        queue_left=result.nodes_left_in_queue,
                        lower_bound=result.lower_bound,
                    )
            except DeadlineExceeded as exc:
                if tele is not None:
                    tele.metrics.inc("planner.deadline.hit")
                    tele.metrics.inc(f"planner.deadline.{exc.phase}")
                raise
            except SearchBudgetExceeded as exc:
                # Only the RG raises a node-budget error; it reports the
                # time the phase ran, which is the rg span's duration.
                exc.elapsed_s = rg_span.duration_s
                raise
            stats.rg_ms = rg_span.duration_ms
            stats.slrg_set_nodes = slrg.nodes_created
            stats.fill_rg(result)
            stats.total_ms = inline_analysis_ms + stats.search_ms
            if result.incumbent and tele is not None:
                tele.metrics.inc("planner.incumbent.returned")
                if result.stop_reason == "deadline":
                    tele.metrics.inc("planner.deadline.hit")
                    tele.metrics.inc("planner.deadline.rg")

            plan = Plan(
                problem=problem,
                actions=result.plan_actions,
                cost_lb=result.cost_lb,
                stats=stats,
                trace=search_trace,
                incumbent=result.incumbent,
                stop_reason=result.stop_reason,
            )
            if tele is not None:
                stats.publish(tele.metrics)
            solve_span.attrs.update(cost_lb=result.cost_lb, plan_actions=len(plan.actions))
            if self.config.validate:
                try:
                    execute_plan(problem, plan.actions, telemetry=tele)
                except ExecutionError as exc:
                    raise ExecutionError(
                        f"planner produced an invalid plan ({exc}); this is a bug"
                    ) from exc
            return plan


def solve(
    app: AppSpec,
    network: Network,
    leveling: Leveling | None = None,
    **config_kwargs,
) -> Plan:
    """One-call convenience wrapper around :class:`Planner`."""
    return Planner(PlannerConfig(leveling=leveling, **config_kwargs)).solve(app, network)


__all__.append("solve")
