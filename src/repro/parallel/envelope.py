"""Pickleable task/result envelopes for supervised worker processes.

Worker processes receive *inputs* (specs, networks, levelings, planner
configuration) and return *summaries* (plans by action name, stats
fields, metrics snapshots) — never live planner state.  The envelope
types here define that contract explicitly:

* :class:`ProblemEnvelope` — everything needed to compile a problem in a
  worker (the compiled form itself is deliberately not shipped: its
  pickle is large and rebuilding replay closures on load costs more than
  compiling against the worker's warm cache).
* :class:`PlanEnvelope` — a finished plan flattened to action names,
  costs, stats, and stop metadata; :meth:`PlanEnvelope.restore` rebinds
  it to a compiled problem in the parent.
* :class:`MetricsSnapshot` — a worker registry's
  :meth:`~repro.obs.MetricsRegistry.snapshot`, merged back into the
  parent registry via :meth:`~repro.obs.MetricsRegistry.merge_snapshot`.

Every envelope passes :func:`check_picklable` at construction in debug
contexts and in the round-trip test-suite; on failure the offending
attribute path is named (``EnvelopeError: ... at plan.stats``), so an
accidentally-introduced closure or open file dies loudly at the
boundary instead of as an opaque ``PicklingError`` inside a worker.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, fields, is_dataclass

from ..compile import CompiledProblem
from ..model import AppSpec, Leveling
from ..network import Network
from ..planner import Plan, PlannerStats

__all__ = [
    "EnvelopeError",
    "check_picklable",
    "ProblemEnvelope",
    "PlanEnvelope",
    "MetricsSnapshot",
]


class EnvelopeError(TypeError):
    """An envelope (or one of its fields) cannot cross a process boundary."""


def _find_unpicklable(obj, path: str, depth: int = 6) -> str | None:
    """Locate the deepest named attribute/key that fails to pickle."""
    try:
        pickle.dumps(obj)
        return None
    except Exception:
        pass
    if depth <= 0:
        return path
    children: list[tuple[str, object]] = []
    if is_dataclass(obj) and not isinstance(obj, type):
        children = [(f"{path}.{f.name}", getattr(obj, f.name)) for f in fields(obj)]
    elif isinstance(obj, dict):
        children = [(f"{path}[{k!r}]", v) for k, v in obj.items()]
    elif isinstance(obj, (list, tuple, set, frozenset)):
        children = [(f"{path}[{i}]", v) for i, v in enumerate(obj)]
    elif hasattr(obj, "__dict__"):
        children = [(f"{path}.{k}", v) for k, v in vars(obj).items()]
    for child_path, child in children:
        found = _find_unpicklable(child, child_path, depth - 1)
        if found is not None:
            return found
    return path


def check_picklable(obj, label: str = "envelope") -> None:
    """Raise :class:`EnvelopeError` naming the offending field, or pass.

    The error message pinpoints the deepest non-picklable attribute path
    (``plan.stats.<field>``) plus the original pickler complaint.
    """
    try:
        pickle.dumps(obj)
        return
    except Exception as exc:
        where = _find_unpicklable(obj, label)
        raise EnvelopeError(
            f"{label} is not picklable at {where}: {type(exc).__name__}: {exc}"
        ) from exc


@dataclass(frozen=True)
class ProblemEnvelope:
    """Inputs of one compilation, ready to ship to a worker."""

    app: AppSpec
    network: Network
    leveling: Leveling | None = None
    bound_overrides: dict | None = None
    strict: bool = False

    @staticmethod
    def from_problem(problem: CompiledProblem) -> "ProblemEnvelope":
        return ProblemEnvelope(
            app=problem.app, network=problem.network, leveling=problem.leveling
        )

    def compile(self, cache=None, metrics=None) -> CompiledProblem:
        """Compile in the receiving process (through its warm cache)."""
        if cache is None:
            from .cache import default_compile_cache

            cache = default_compile_cache()
        return cache.compile(
            self.app,
            self.network,
            self.leveling,
            self.bound_overrides,
            self.strict,
            metrics=metrics,
        )

    def validate(self) -> None:
        check_picklable(self, "problem envelope")


@dataclass(frozen=True)
class PlanEnvelope:
    """A finished plan flattened for the trip home."""

    actions: tuple[str, ...]
    cost_lb: float
    exact_cost: float
    stats: PlannerStats
    incumbent: bool = False
    stop_reason: str = "optimal"
    app: str = ""
    network: str = ""
    leveling: str = ""

    @staticmethod
    def from_plan(plan: Plan) -> "PlanEnvelope":
        return PlanEnvelope(
            actions=tuple(plan.action_names()),
            cost_lb=plan.cost_lb,
            exact_cost=plan.exact_cost,
            stats=plan.stats,
            incumbent=plan.incumbent,
            stop_reason=plan.stop_reason,
            app=plan.problem.app.name,
            network=plan.problem.network.name,
            leveling=plan.problem.leveling.name,
        )

    def restore(self, problem: CompiledProblem) -> Plan:
        """Rebind to a compiled problem (same app/network/leveling).

        Raises
        ------
        KeyError
            When an action name does not exist in ``problem`` — the
            instance differs from the one the worker solved.
        """
        plan = Plan.from_dict(
            {
                "format": 1,
                "actions": list(self.actions),
                "cost_lower_bound": self.cost_lb,
                "incumbent": self.incumbent,
                "stop_reason": self.stop_reason,
            },
            problem,
        )
        plan.stats = self.stats
        return plan

    def validate(self) -> None:
        check_picklable(self, "plan envelope")


@dataclass(frozen=True)
class MetricsSnapshot:
    """A worker telemetry, flattened for the trip home.

    ``records`` is the registry's JSON snapshot; ``spans`` carries the
    worker's recorded spans as plain dicts (:func:`repro.obs.spans_payload`)
    together with the provenance the coordinator needs to stitch them
    into its own timeline (docs/OBSERVABILITY.md, "Distributed
    tracing"): the worker pid (the trace lane), the trace context the
    task ran under, and the paired epoch/perf clock anchors that map
    worker ``perf_counter`` timestamps onto the coordinator's clock.
    """

    records: tuple = ()
    spans: tuple = ()
    pid: int = 0
    trace_id: str = ""
    parent_span_id: int | None = None
    epoch_anchor_s: float = 0.0
    perf_anchor_s: float = 0.0

    @staticmethod
    def from_telemetry(telemetry) -> "MetricsSnapshot":
        if telemetry is None:
            return MetricsSnapshot()
        import os

        from ..obs.context import spans_payload

        context = getattr(telemetry, "context", None)
        return MetricsSnapshot(
            records=tuple(telemetry.metrics.snapshot()),
            spans=spans_payload(telemetry.spans),
            pid=os.getpid(),
            trace_id=getattr(telemetry, "trace_id", ""),
            parent_span_id=context.parent_span_id if context is not None else None,
            epoch_anchor_s=getattr(telemetry, "epoch_anchor_s", 0.0),
            perf_anchor_s=getattr(telemetry, "perf_anchor_s", 0.0),
        )

    @staticmethod
    def from_registry(metrics) -> "MetricsSnapshot":
        if metrics is None:
            return MetricsSnapshot()
        return MetricsSnapshot(records=tuple(metrics.snapshot()))

    def merge_into(self, metrics) -> None:
        """Accumulate into a parent registry (see ``merge_snapshot``)."""
        if metrics is not None and self.records:
            metrics.merge_snapshot(list(self.records))

    def validate(self) -> None:
        check_picklable(self, "metrics snapshot")


# Re-exported for test parametrization convenience.
ENVELOPE_TYPES = (ProblemEnvelope, PlanEnvelope, MetricsSnapshot)
__all__.append("ENVELOPE_TYPES")
