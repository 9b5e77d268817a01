"""Exact forward execution of plans.

The planner reasons in levels and intervals; this module is the ground
truth.  It executes a plan with concrete float values under the greedy
within-level concretization (DESIGN.md rule 2): each action processes
``min(available, level cap)`` units of its input streams.  Conditions are
checked exactly; resources are debited exactly.  A plan that fails here is
invalid — the planner's soundness invariant (tested property-style) is
that every plan it returns executes cleanly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..expr import (
    EvalError,
    check_condition_float,
    compile_condition_float,
    compile_float,
    eval_float,
)
from ..compile import CompiledProblem, EffectKind, GroundAction, replay_backend
from ..compile.actions import is_resource_var
from ..obs import Telemetry, maybe_span
from .errors import ExecutionError

__all__ = ["ExecutionStep", "ExecutionReport", "PlanExecutor", "execute_plan"]

_EPS = 1e-6


@dataclass
class ExecutionStep:
    """One executed action with its concrete values."""

    action: GroundAction
    inputs: dict[str, float]  # spec var -> processed value
    outputs: dict[str, float]  # ground var -> produced/updated value
    cost: float


@dataclass
class ExecutionReport:
    """Result of executing a full plan."""

    steps: list[ExecutionStep] = field(default_factory=list)
    total_cost: float = 0.0
    final_values: dict[str, float] = field(default_factory=dict)
    consumed: dict[str, float] = field(default_factory=dict)  # ground var -> used

    def max_consumed(self, gvars: set[str]) -> float:
        """Largest consumption over a set of resource variables."""
        return max((self.consumed.get(g, 0.0) for g in gvars), default=0.0)

    def value(self, gvar: str) -> float:
        return self.final_values.get(gvar, 0.0)


def execute_plan(
    problem: CompiledProblem,
    actions: list[GroundAction],
    telemetry: Telemetry | None = None,
) -> ExecutionReport:
    """Execute ``actions`` in order from the initial state.

    Raises :class:`ExecutionError` with a precise reason on any violation:
    missing input stream, failed condition, or resource overdraw.  With
    ``telemetry``, the execution is wrapped in an ``execute`` span and
    counted under ``executor.plans`` / ``executor.actions``.
    """
    with maybe_span(telemetry, "execute", actions=len(actions)):
        if telemetry is not None:
            telemetry.metrics.inc("executor.plans")
            telemetry.metrics.inc("executor.actions", len(actions))
        return _execute(problem, actions)


class PlanExecutor:
    """Stateful, checkpointed forward execution — one atomic step at a time.

    The incremental counterpart of :func:`execute_plan`: state (the exact
    ground-variable values) persists across :meth:`step` calls, so
    executing an n-action plan costs n action evaluations total instead
    of O(n²) re-executions when a caller probes one action at a time
    (deployment repair's surviving-prefix scan does exactly that).

    Steps are **atomic**: every read, condition, and staged write of an
    action is validated against the current state before anything is
    applied, so a failing :meth:`step`/:meth:`try_step` leaves the
    executor exactly where it was — the caller can go on probing other
    candidates or finalize the report of the successful prefix.
    """

    def __init__(self, problem: CompiledProblem):
        values: dict[str, float] = dict(problem.initial_values)
        for iface, node, value, _deg, _upg, prop in problem._initial_streams:
            from ..compile import iface_prop_var

            values[iface_prop_var(prop, iface, node)] = value
        self._values = values
        self._baseline = dict(values)
        self._report = ExecutionReport()
        self._compiled = replay_backend() == "compiled"

    @property
    def steps(self) -> list[ExecutionStep]:
        return self._report.steps

    def step(self, action: GroundAction) -> ExecutionStep:
        """Execute one action; raises :class:`ExecutionError` on any
        violation, leaving the state unchanged."""
        env, inputs = self._read_inputs(action)
        self._check_conditions(action, env)
        outputs, writes = self._stage_effects(action, env)
        cost = self._action_cost(action, env)
        # All validation passed: apply the staged writes atomically.
        self._values.update(writes)
        step = ExecutionStep(action, inputs, outputs, cost)
        self._report.steps.append(step)
        self._report.total_cost += cost
        return step

    def try_step(self, action: GroundAction) -> bool:
        """Like :meth:`step` but returns ``False`` instead of raising."""
        try:
            self.step(action)
        except ExecutionError:
            return False
        return True

    def report(self) -> ExecutionReport:
        """The report of everything executed so far.

        Snapshots ``final_values`` and ``consumed`` from the current
        state; safe to call repeatedly (e.g. once per probed prefix
        length) — further steps simply extend the same report.
        """
        self._report.final_values = dict(self._values)
        consumed: dict[str, float] = {}
        for gvar, before in self._baseline.items():
            after = self._values.get(gvar, before)
            if after < before - _EPS:
                consumed[gvar] = before - after
        self._report.consumed = consumed
        return self._report

    # -- one action, in validate-then-apply stages ---------------------------

    def _read_inputs(
        self, action: GroundAction
    ) -> tuple[dict[str, float], dict[str, float]]:
        values = self._values
        env: dict[str, float] = {}
        inputs: dict[str, float] = {}
        for spec_var, gvar in action.var_map.items():
            raw = values.get(gvar)
            committed = action.committed.get(spec_var)
            if committed is None:
                continue  # output-only mapping: written by effects below
            if is_resource_var(spec_var):
                if raw is None:
                    raise ExecutionError(f"{action.name}: resource {gvar} has no value")
                env[spec_var] = raw
                continue
            if raw is None:
                raise ExecutionError(
                    f"{action.name}: input stream {gvar} is not available"
                )
            cap = committed.hi
            lo = committed.lo
            u = min(raw, cap)
            if u + _EPS < lo:
                raise ExecutionError(
                    f"{action.name}: only {u:g} of {gvar} available but the "
                    f"committed level requires at least {lo:g}"
                )
            env[spec_var] = u
            inputs[spec_var] = u
        return env, inputs

    def _check_conditions(self, action: GroundAction, env: dict[str, float]) -> None:
        try:
            for cond in action.conditions:
                holds = (
                    compile_condition_float(cond)(env)
                    if self._compiled
                    else check_condition_float(cond, env)
                )
                if not holds:
                    raise ExecutionError(
                        f"{action.name}: condition {cond.unparse()} fails with "
                        + ", ".join(f"{k}={v:g}" for k, v in sorted(env.items()))
                    )
        except EvalError as exc:
            raise ExecutionError(f"{action.name}: {exc}") from exc

    def _stage_effects(
        self, action: GroundAction, env: dict[str, float]
    ) -> tuple[dict[str, float], dict[str, float]]:
        """Validate and stage all effect writes without touching state.

        Right-hand sides all read the pre-state (simultaneous-effect
        semantics); sequential writes to a shared target accumulate in
        the ``writes`` overlay, so a CONSUME overdraw is detected before
        any write lands.
        """
        values = self._values
        staged: list[tuple[str, EffectKind, float, str]] = []
        for assign, (gvar, kind) in zip(action.effects, action.effect_targets):
            try:
                rhs = (
                    compile_float(assign.expr)(env)
                    if self._compiled
                    else eval_float(assign.expr, env)
                )
            except EvalError as exc:
                raise ExecutionError(f"{action.name}: {exc}") from exc
            staged.append((gvar, kind, rhs, assign.op))

        outputs: dict[str, float] = {}
        writes: dict[str, float] = {}
        for gvar, kind, rhs, op in staged:
            current = writes.get(gvar, values.get(gvar, 0.0))
            if kind is EffectKind.CONSUME:
                new = current - rhs
                if new < -_EPS:
                    raise ExecutionError(
                        f"{action.name}: overdraws {gvar} by {-new:g}"
                    )
                writes[gvar] = max(new, 0.0)
            elif kind is EffectKind.SET_RESOURCE:
                if op == ":=":
                    writes[gvar] = rhs
                elif op == "+=":
                    writes[gvar] = current + rhs
                else:
                    writes[gvar] = current - rhs
            else:
                writes[gvar] = rhs
            outputs[gvar] = writes[gvar]
        return outputs, writes

    def _action_cost(self, action: GroundAction, env: dict[str, float]) -> float:
        try:
            if action.cost_ast is None:
                return 1.0
            if self._compiled:
                return compile_float(action.cost_ast)(env)
            return eval_float(action.cost_ast, env)
        except EvalError as exc:
            raise ExecutionError(f"{action.name}: cost formula: {exc}") from exc


def _execute(problem: CompiledProblem, actions: list[GroundAction]) -> ExecutionReport:
    executor = PlanExecutor(problem)
    for action in actions:
        executor.step(action)
    return executor.report()


