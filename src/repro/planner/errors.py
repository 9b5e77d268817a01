"""Planner exception types."""

from __future__ import annotations

__all__ = [
    "PlanningError",
    "Unsolvable",
    "ResourceInfeasible",
    "SearchBudgetExceeded",
    "DeadlineExceeded",
    "ExecutionError",
]


class PlanningError(Exception):
    """Base class for planner failures."""


class Unsolvable(PlanningError):
    """The goal is logically unreachable (PLRG expansion exhausted)."""


class ResourceInfeasible(PlanningError):
    """Logically reachable, but no plan survives resource replay.

    This is the failure mode of the greedy planner in the paper's
    Scenario 1: the RG search space empties without a terminal node.
    """


class SearchBudgetExceeded(PlanningError):
    """A search phase exceeded its configured node budget.

    Carries structured attributes so harnesses and the CLI can act on the
    failure without parsing the message:

    ``phase``
        Which phase gave up (``"plrg"``, ``"slrg"``, or ``"rg"``).
    ``nodes_expanded`` / ``nodes_created``
        Work done before exhaustion (``0`` when unknown for the phase).
    ``budget``
        The configured node budget that was exceeded.
    ``elapsed_s``
        Wall-clock seconds spent in the phase before giving up: the
        ``rg`` span's duration, filled in by :meth:`Planner.solve
        <repro.planner.Planner.solve>` as the error leaves the phase (a
        direct :func:`~repro.planner.regression_search` call reports
        0.0).  Kept out of the auto-composed *message*: a node-budget
        failure is deterministic for a given instance, and seeded fault
        campaigns diff recorded failure strings across runs.
    """

    def __init__(
        self,
        message: str | None = None,
        *,
        phase: str = "rg",
        nodes_expanded: int = 0,
        nodes_created: int = 0,
        budget: int = 0,
        elapsed_s: float = 0.0,
    ):
        self.phase = phase
        self.nodes_expanded = nodes_expanded
        self.nodes_created = nodes_created
        self.budget = budget
        self.elapsed_s = elapsed_s
        if message is None:
            message = (
                f"{phase.upper()} exceeded its node budget of {budget} "
                f"({nodes_created} nodes created, {nodes_expanded} expanded)"
            )
        super().__init__(message)


class DeadlineExceeded(SearchBudgetExceeded):
    """A wall-clock deadline expired before the search finished.

    Subclasses :class:`SearchBudgetExceeded` — a deadline is a budget in
    seconds rather than nodes — so existing ``except SearchBudgetExceeded``
    handlers keep working.  ``time_limit_s`` holds the limit that expired;
    the inherited ``phase`` / ``nodes_expanded`` / ``nodes_created`` /
    ``elapsed_s`` attributes say where and after how much work.  Here
    ``elapsed_s`` is the expired :class:`~repro.planner.Deadline`'s
    ``elapsed_s()`` — time since that limit was anchored — so it is at
    least ``time_limit_s`` in every phase.
    """

    def __init__(
        self,
        message: str | None = None,
        *,
        phase: str = "rg",
        time_limit_s: float = 0.0,
        nodes_expanded: int = 0,
        nodes_created: int = 0,
        elapsed_s: float = 0.0,
    ):
        self.time_limit_s = time_limit_s
        if message is None:
            message = (
                f"{phase.upper()} deadline of {time_limit_s:.3f}s exceeded after "
                f"{elapsed_s:.3f}s ({nodes_created} nodes created, "
                f"{nodes_expanded} expanded) without a complete plan"
            )
        super().__init__(
            message,
            phase=phase,
            nodes_expanded=nodes_expanded,
            nodes_created=nodes_created,
            budget=0,
            elapsed_s=elapsed_s,
        )


class ExecutionError(PlanningError):
    """Exact forward execution of a plan failed (plan is invalid)."""
