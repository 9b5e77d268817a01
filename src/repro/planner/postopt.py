"""Post-processing utilization optimizer (paper §2.3).

The original Sekitei "attempted to achieve [resource minimization] with a
post-processing step, but this is not enough" — it can shrink how much
data a fixed plan pushes, but it cannot change the plan's *structure*
(which components, which routes), which is where the real savings are.
This module implements that post-processor so the paper's argument can be
measured: given a feasible plan, find the smallest source-throttle factor
that still satisfies every goal condition, by bisection over exact
re-executions.

Throttling works by capping each action's committed input intervals at a
fraction of their original caps; because all specification functions are
monotone and the streams are degradable, scaling down never breaks
resource feasibility — only goal conditions (minimum bandwidth) bound the
shrink from below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..compile import CompiledProblem, GroundAction
from ..intervals import Interval
from ..obs import Telemetry, maybe_span
from .errors import ExecutionError
from .executor import ExecutionReport, execute_plan

__all__ = ["PostOptResult", "post_optimize"]


@dataclass
class PostOptResult:
    """Outcome of post-optimization."""

    throttle: float  # chosen utilization factor in (0, 1]
    original_cost: float
    optimized_cost: float
    original_report: ExecutionReport
    optimized_report: ExecutionReport
    optimized_actions: list[GroundAction]

    @property
    def saving(self) -> float:
        return self.original_cost - self.optimized_cost


def _throttled_actions(actions: list[GroundAction], factor: float) -> list[GroundAction]:
    """Copies of ``actions`` with stream-input caps scaled by ``factor``.

    Only the committed upper ends move; resource entries and lower ends
    are left alone (a lower end above the scaled cap simply clamps to it —
    the executor's level-floor check uses the committed interval, so we
    rebuild it as ``[0, factor * hi]`` to express pure throttling).
    """
    out = []
    for action in actions:
        committed = {}
        for spec_var, iv in action.committed.items():
            if spec_var.startswith(("Node.", "Link.")) or math.isinf(iv.hi):
                committed[spec_var] = iv
            else:
                committed[spec_var] = Interval.closed(0.0, iv.hi * factor)
        clone = replace_action(action, committed)
        out.append(clone)
    return out


def replace_action(action: GroundAction, committed: dict[str, Interval]) -> GroundAction:
    """A copy of a ground action with different committed intervals.

    The copy shares the action's replay program (see
    :meth:`GroundAction.clone`).
    """
    dup = action.clone()
    dup.committed = committed
    return dup


def post_optimize(
    problem: CompiledProblem,
    actions: list[GroundAction],
    tolerance: float = 1e-3,
    max_iterations: int = 40,
    telemetry: Telemetry | None = None,
) -> PostOptResult:
    """Shrink a plan's utilization to the cheapest feasible throttle.

    Bisects the throttle factor in ``(0, 1]``: a factor is feasible when
    the throttled plan still executes exactly (all goal conditions hold).
    Costs are monotone in pushed bandwidth, so the minimal feasible factor
    is the cheapest.  With ``telemetry``, the bisection is wrapped in a
    ``postopt`` span and each re-execution counts under
    ``postopt.attempts``.

    Raises
    ------
    ExecutionError
        If the *unthrottled* plan does not execute — post-optimization
        only makes sense for feasible plans.
    """
    with maybe_span(telemetry, "postopt", actions=len(actions)) as span:
        original_report = execute_plan(problem, actions)

        def attempt(factor: float):
            if telemetry is not None:
                telemetry.metrics.inc("postopt.attempts")
            try:
                throttled = _throttled_actions(actions, factor)
                return throttled, execute_plan(problem, throttled)
            except ExecutionError:
                return None

        lo, hi = 0.0, 1.0
        best_actions, best_report = actions, original_report
        best_factor = 1.0
        for _ in range(max_iterations):
            if hi - lo <= tolerance:
                break
            mid = (lo + hi) / 2
            result = attempt(mid)
            if result is None:
                lo = mid
            else:
                hi = mid
                best_actions, best_report = result
                best_factor = mid

        if span is not None:
            span.attrs.update(
                throttle=round(best_factor, 6),
                original_cost=original_report.total_cost,
                optimized_cost=best_report.total_cost,
            )
        return PostOptResult(
            throttle=best_factor,
            original_cost=original_report.total_cost,
            optimized_cost=best_report.total_cost,
            original_report=original_report,
            optimized_report=best_report,
            optimized_actions=list(best_actions),
        )
