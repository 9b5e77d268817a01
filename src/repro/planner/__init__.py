"""The leveled Sekitei planner: PLRG, SLRG, RG phases and the facade."""

from ..obs.trace import SearchTrace, TraceEvent
from .adaptation import (
    Deployment,
    RepairResult,
    repair_by_names,
    repair_deployment,
    surviving_prefix,
)
from .deadline import Deadline
from .delta import (
    StitchedDeployment,
    fold_prefix,
    parse_stream_var,
    placements_of_names,
    stitch_plan,
)
from .errors import (
    DeadlineExceeded,
    ExecutionError,
    PlanningError,
    ResourceInfeasible,
    SearchBudgetExceeded,
    Unsolvable,
)
from .executor import ExecutionReport, ExecutionStep, PlanExecutor, execute_plan
from .plan import Plan
from .planner import Heuristic, Planner, PlannerConfig, solve
from .plrg import PLRG, build_plrg
from .postopt import PostOptResult, post_optimize
from .rg import RGResult, regression_search
from .robust import RUNGS, Rung, RungAttempt, SolveOutcome, coarsen_leveling, ladder, run_ladder
from .robust import solve_robust
from .slrg import SLRG
from .stats import PlannerStats

__all__ = [
    "PlanningError",
    "Unsolvable",
    "ResourceInfeasible",
    "SearchBudgetExceeded",
    "DeadlineExceeded",
    "Deadline",
    "ExecutionError",
    "ExecutionReport",
    "ExecutionStep",
    "PlanExecutor",
    "execute_plan",
    "Plan",
    "Planner",
    "PlannerConfig",
    "Heuristic",
    "solve",
    "PLRG",
    "build_plrg",
    "SLRG",
    "RGResult",
    "regression_search",
    "PlannerStats",
    "Deployment",
    "RepairResult",
    "repair_deployment",
    "repair_by_names",
    "surviving_prefix",
    "StitchedDeployment",
    "stitch_plan",
    "fold_prefix",
    "parse_stream_var",
    "placements_of_names",
    "PostOptResult",
    "post_optimize",
    "RUNGS",
    "Rung",
    "RungAttempt",
    "SolveOutcome",
    "coarsen_leveling",
    "ladder",
    "run_ladder",
    "solve_robust",
    "SearchTrace",
    "TraceEvent",
    "HierarchyConfig",
    "HierarchyOutcome",
    "solve_hierarchical",
]

_HIERARCHY_EXPORTS = ("HierarchyConfig", "HierarchyOutcome", "solve_hierarchical")


def __getattr__(name: str):
    # Lazy re-export: repro.hierarchy imports repro.planner, so importing
    # it eagerly here would be a cycle.
    if name in _HIERARCHY_EXPORTS:
        from .. import hierarchy

        return getattr(hierarchy, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
