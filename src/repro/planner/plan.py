"""Plan representation."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..compile import CompiledProblem, GroundAction
from ..obs import SearchTrace
from .executor import ExecutionReport, execute_plan
from .stats import PlannerStats

if TYPE_CHECKING:  # pragma: no cover
    pass

__all__ = ["Plan"]


@dataclass
class Plan:
    """A deployment plan: an ordered action sequence plus metadata.

    ``cost_lb`` is the optimized lower bound (Table 2, column 2);
    :meth:`execute` yields the exact cost and resource usage under greedy
    within-level concretization.
    """

    problem: CompiledProblem
    actions: list[GroundAction]
    cost_lb: float
    stats: PlannerStats = field(default_factory=PlannerStats)
    trace: SearchTrace | None = field(default=None, repr=False)
    incumbent: bool = False
    """Anytime result: the search was cut short (deadline or node budget)
    and this is the best complete plan found, not the proven optimum.
    ``cost_lb`` is then this plan's own lower bound, which is at or above
    the optimum's; ``stats.rg_lower_bound`` bounds the optimum from below,
    so the gap is ``cost_lb - stats.rg_lower_bound``."""
    stop_reason: str = "optimal"
    """Why the search ended: ``"optimal"``, ``"deadline"``, or
    ``"node_budget"``."""
    _report: ExecutionReport | None = field(default=None, repr=False)

    def __len__(self) -> int:
        return len(self.actions)

    def execute(self) -> ExecutionReport:
        """Exact forward execution (cached)."""
        if self._report is None:
            self._report = execute_plan(self.problem, self.actions)
        return self._report

    @property
    def exact_cost(self) -> float:
        return self.execute().total_cost

    def action_names(self) -> list[str]:
        return [a.name for a in self.actions]

    def placements(self) -> list[tuple[str, str]]:
        """The (component, node) placements the plan performs."""
        return [(a.subject, a.node) for a in self.actions if a.kind == "place"]

    def crossings(self) -> list[tuple[str, str, str]]:
        """The (interface, src, dst) link crossings the plan performs."""
        return [(a.subject, a.src, a.dst) for a in self.actions if a.kind == "cross"]

    def to_dict(self) -> dict:
        """JSON-ready representation (re-loadable via :meth:`from_dict`).

        Actions are stored by their unique ground names; reconstruction
        therefore needs the same compiled problem (same app, network, and
        leveling), which keeps the payload small and tamper-evident.
        """
        return {
            "format": 1,
            "app": self.problem.app.name,
            "network": self.problem.network.name,
            "leveling": self.problem.leveling.name,
            "actions": self.action_names(),
            "cost_lower_bound": self.cost_lb,
            "incumbent": self.incumbent,
            "stop_reason": self.stop_reason,
        }

    @staticmethod
    def from_dict(data: dict, problem: CompiledProblem) -> "Plan":
        """Rebuild a plan against a compiled problem.

        Raises
        ------
        KeyError
            If an action name does not exist in ``problem`` (different
            network, leveling, or library version).
        """
        if data.get("format") != 1:
            raise ValueError(f"unsupported plan format {data.get('format')!r}")
        by_name = {a.name: a for a in problem.actions}
        try:
            actions = [by_name[name] for name in data["actions"]]
        except KeyError as exc:
            raise KeyError(
                f"plan action {exc.args[0]!r} not present in this compiled "
                "problem (was it compiled with the same network and leveling?)"
            ) from None
        return Plan(
            problem=problem,
            actions=actions,
            cost_lb=float(data.get("cost_lower_bound", 0.0)),
            incumbent=bool(data.get("incumbent", False)),
            stop_reason=str(data.get("stop_reason", "optimal")),
        )

    def describe(self) -> str:
        """Human-readable multi-line description (Fig. 4 style)."""
        tag = " [incumbent]" if self.incumbent else ""
        lines = [f"plan ({len(self.actions)} actions, cost lower bound {self.cost_lb:g}){tag}:"]
        for a in self.actions:
            if a.kind == "place":
                lines.append(f"  place {a.subject} on node {a.node}")
            else:
                lines.append(f"  cross with {a.subject} stream from {a.src} to {a.dst}")
        return "\n".join(lines)
