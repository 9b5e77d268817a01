"""Planner statistics — the "work done by the planner" half of Table 2.

:class:`PlannerStats` is a thin, typed view over the observability
subsystem's metric names: every field maps 1:1 onto a ``planner.<field>``
gauge in a :class:`~repro.obs.MetricsRegistry` (:meth:`PlannerStats.publish`
writes them, :meth:`PlannerStats.from_metrics` reads them back), so an
exported trace file carries the full Table 2 row without a parallel
serialization path.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import TYPE_CHECKING

from ..obs import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover
    from .rg import RGResult

__all__ = ["PlannerStats"]


@dataclass
class PlannerStats:
    """Everything Table 2 reports about one planner run.

    Attributes mirror the paper's columns: total ground actions after
    leveling/pruning (col. 5), PLRG proposition/action node counts
    (col. 6), total SLRG set nodes (col. 7), RG nodes created (tails
    replayed cleanly, the root included) and nodes left in the A* queue
    at solution time, replayed or not (col. 8), and total vs
    search-only time in milliseconds (col. 9).

    Every time is a span's duration (:func:`repro.obs.timed`, recorded
    when telemetry is on): ``plrg_ms``/``slrg_ms``/``rg_ms`` are the
    ``plrg``/``slrg``/``rg`` spans of :meth:`Planner.solve
    <repro.planner.Planner.solve>`, so an exported trace's gauges and
    spans agree exactly.
    """

    total_actions: int = 0
    plrg_prop_nodes: int = 0
    plrg_action_nodes: int = 0
    slrg_set_nodes: int = 0
    rg_nodes: int = 0
    rg_queue_left: int = 0
    rg_expanded: int = 0
    rg_replays: int = 0
    """Whole-tail replays run by the RG (at most one per node: at its pop,
    or earlier for a complete node or a transposition twin)."""
    rg_actions_replayed: int = 0
    """Individual action executions performed inside those replays."""
    rg_conditions_checked: int = 0
    """Condition satisfiability checks evaluated during replay."""
    incumbent: int = 0
    """1 when the returned plan is an anytime incumbent (the search was
    cut short by a deadline or node budget), 0 for a proven optimum."""
    deadline_hits: int = 0
    """1 when a wall-clock deadline ended the run (docs/ROBUSTNESS.md)."""
    static_pruned: int = 0
    """Ground actions excluded up front by certified dead-action analysis
    (``PlannerConfig.static_prune``, docs/ANALYSIS.md)."""
    rg_sym_pruned: int = 0
    """RG children skipped by the verified symmetry sibling prune."""
    rg_lower_bound: float = 0.0
    """Proven lower bound on the optimal cost within the leveling: the
    plan's ``cost_lb`` for an optimum; for an incumbent, the smallest f on
    the RG's open frontier when it was cut short (the gap is
    ``cost_lb - rg_lower_bound``)."""
    analysis_ms: float = 0.0
    """Static-analysis wall clock (0 when ``static_prune`` is off).  Cached
    analyses report the original computation time, not the (free) hit."""
    compile_ms: float = 0.0
    plrg_ms: float = 0.0
    slrg_ms: float = 0.0
    rg_ms: float = 0.0
    total_ms: float = 0.0
    """The span sum: ``plrg`` + ``slrg`` + ``rg`` spans, plus the ``analysis``
    span when static analysis ran inline (0 when it came from the cache).

    Without an inline analysis it equals :attr:`search_ms` exactly.
    Compilation time is *never* included — it is reported separately as
    ``compile_ms`` regardless of whether :meth:`Planner.solve` compiled
    internally or was handed a pre-compiled problem.
    """

    def fill_rg(self, result: RGResult) -> None:
        """Set the ``rg_*``, ``incumbent`` and ``deadline_hits`` fields from
        one RG result and the search record it carries."""
        record = result.record
        self.rg_nodes = record.created
        self.rg_queue_left = result.nodes_left_in_queue
        self.rg_expanded = record.expanded
        self.rg_replays = record.replay.replays
        self.rg_actions_replayed = record.replay.actions_replayed
        self.rg_conditions_checked = record.replay.conditions_checked
        self.rg_sym_pruned = record.pruned["symmetry"]
        self.rg_lower_bound = result.lower_bound
        self.incumbent = 1 if result.incumbent else 0
        self.deadline_hits = 1 if result.stop_reason == "deadline" else 0

    # -- the metrics-registry view (docs/OBSERVABILITY.md) ---------------------

    def publish(self, metrics: MetricsRegistry) -> None:
        """Write every field as a ``planner.<field>`` gauge.

        Gauges are last-write-wins, so re-running a planner against the
        same :class:`~repro.obs.Telemetry` leaves the registry describing
        the most recent run (spans and counters keep accumulating).
        """
        for f in fields(self):
            metrics.set_gauge(f"planner.{f.name}", getattr(self, f.name))

    @classmethod
    def from_metrics(cls, metrics: MetricsRegistry) -> "PlannerStats":
        """Rebuild a stats row from the ``planner.*`` gauges.

        Missing gauges keep their field defaults, so a registry from an
        older export still loads.
        """
        kwargs = {}
        for f in fields(cls):
            gauge = metrics.get(f"planner.{f.name}")
            if gauge is not None:
                cast = int if isinstance(f.default, int) else float
                kwargs[f.name] = cast(gauge.value)
        return cls(**kwargs)

    @property
    def search_ms(self) -> float:
        """Search-and-graph-construction time (the second number of col. 9)."""
        return self.plrg_ms + self.slrg_ms + self.rg_ms

    def replay_summary(self) -> str:
        """One-line account of RG replay work (shown by ``repro plan``)."""
        return (
            f"{self.rg_replays} replays, {self.rg_actions_replayed} actions "
            f"replayed, {self.rg_conditions_checked} conditions checked"
        )

    def row(self) -> dict[str, float | int | str]:
        """A flat dict suitable for table rendering."""
        return {
            "total_actions": self.total_actions,
            "plrg": f"{self.plrg_prop_nodes} / {self.plrg_action_nodes}",
            "slrg": self.slrg_set_nodes,
            "rg": f"{self.rg_nodes} / {self.rg_queue_left}",
            "time_ms": f"{self.total_ms:.0f} / {self.search_ms:.0f}",
        }
