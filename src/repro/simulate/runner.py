"""The churn simulator: deploy once, repair across environment changes.

Drives the §6 adaptation machinery through a timeline of network events:
after each event the current deployment is re-validated, the surviving
prefix kept, and a repair delta planned.  The simulation records, per
step, what broke, what was kept, what was redeployed, the repair cost,
and — when a :class:`~repro.simulate.faults.FaultInjector` is attached —
how many retries and how much (simulated) backoff the repair path burned.
The per-run record is enough to compute availability-style numbers for
evaluating adaptive deployment policies (docs/ROBUSTNESS.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..model import AppSpec, Leveling
from ..network import Network
from ..obs import timed
from ..planner import (
    Deployment,
    Plan,
    Planner,
    PlannerConfig,
    PlanningError,
    repair_deployment,
)
from .events import Event, apply_event, event_to_dict
from .faults import FaultInjector, RetryPolicy, TransientFault

__all__ = ["SimulationStep", "SimulationResult", "Simulation"]


@dataclass
class SimulationStep:
    """Outcome of one event."""

    index: int
    event: Event
    survived_actions: int
    repair_actions: int
    repair_cost: float
    total_plan_cost: float
    failed: bool = False
    failure: str = ""
    attempts: int = 1
    """Repair attempts run (1 when the first try went through)."""
    transient_failures: int = 0
    """Attempts lost to injected :class:`TransientFault`."""
    backoff_s: float = 0.0
    """Simulated backoff charged by the retry policy (not slept)."""
    wall_ms: float = 0.0
    """Real wall-clock spent handling this step (planning included)."""

    def describe(self) -> str:
        retry = f", {self.transient_failures} transient retries" if self.transient_failures else ""
        if self.failed:
            return (
                f"[{self.index}] {self.event.describe()} -> "
                f"UNREPAIRABLE ({self.failure}){retry}"
            )
        return (
            f"[{self.index}] {self.event.describe()} -> kept {self.survived_actions}, "
            f"replanned {self.repair_actions} (repair cost {self.repair_cost:g}){retry}"
        )

    def to_dict(self, include_timings: bool = False) -> dict:
        data = {
            "index": self.index,
            "event": event_to_dict(self.event),
            "survived_actions": self.survived_actions,
            "repair_actions": self.repair_actions,
            "repair_cost": self.repair_cost,
            "total_plan_cost": self.total_plan_cost,
            "failed": self.failed,
            "failure": self.failure,
            "attempts": self.attempts,
            "transient_failures": self.transient_failures,
            "backoff_s": round(self.backoff_s, 6),
        }
        if include_timings:
            data["wall_ms"] = self.wall_ms
        return data


@dataclass
class SimulationResult:
    """Full simulation record."""

    initial_plan: Plan | None
    initial_failure: str = ""
    """Why the very first deployment failed (empty on success); a failed
    initial solve yields an empty-steps result instead of an exception."""
    steps: list[SimulationStep] = field(default_factory=list)
    wall_ms: float = 0.0

    @property
    def total_repair_cost(self) -> float:
        return sum(s.repair_cost for s in self.steps if not s.failed)

    @property
    def outage_steps(self) -> int:
        return sum(1 for s in self.steps if s.failed)

    @property
    def availability(self) -> float:
        """Fraction of steps the deployment was up (1.0 for no steps)."""
        if not self.steps:
            return 0.0 if self.initial_failure else 1.0
        return 1.0 - self.outage_steps / len(self.steps)

    @property
    def transient_failures(self) -> int:
        return sum(s.transient_failures for s in self.steps)

    @property
    def backoff_retries(self) -> int:
        """Retries that eventually went through (the availability win)."""
        return sum(s.transient_failures for s in self.steps if not s.failed)

    @property
    def total_backoff_s(self) -> float:
        return sum(s.backoff_s for s in self.steps)

    def describe(self) -> str:
        if self.initial_plan is None:
            return f"initial deployment FAILED: {self.initial_failure}"
        lines = [f"initial deployment: {len(self.initial_plan)} actions, "
                 f"exact cost {self.initial_plan.exact_cost:g}"]
        lines += [s.describe() for s in self.steps]
        lines.append(
            f"total repair cost {self.total_repair_cost:g}, "
            f"outages {self.outage_steps}/{len(self.steps)}, "
            f"availability {self.availability:.3f}"
        )
        if self.transient_failures:
            lines.append(
                f"transient faults {self.transient_failures} "
                f"({self.backoff_retries} retried through), "
                f"simulated backoff {self.total_backoff_s:g}s"
            )
        return "\n".join(lines)

    def to_dict(self, include_timings: bool = False) -> dict:
        """A JSON-ready campaign record.

        Timings are excluded by default so two runs with the same seed
        serialize byte-identically (the ``fault-smoke`` CI check).
        """
        data: dict = {
            "initial": (
                {
                    "actions": len(self.initial_plan),
                    "exact_cost": self.initial_plan.exact_cost,
                }
                if self.initial_plan is not None
                else {"failure": self.initial_failure}
            ),
            "steps": [s.to_dict(include_timings) for s in self.steps],
            "summary": {
                "total_repair_cost": self.total_repair_cost,
                "outage_steps": self.outage_steps,
                "availability": round(self.availability, 6),
                "transient_failures": self.transient_failures,
                "backoff_retries": self.backoff_retries,
                "total_backoff_s": round(self.total_backoff_s, 6),
            },
        }
        if include_timings:
            data["wall_ms"] = self.wall_ms
        return data


class Simulation:
    """Deploy an application, then play a sequence of network events.

    Parameters
    ----------
    migration_cost_factor:
        Passed through to :func:`repair_deployment`.
    replan_from_scratch_on_outage:
        When an event leaves the deployment unrepairable (e.g. the network
        partitioned), later events may restore connectivity; with this
        flag (default) the simulator attempts a full re-deployment at each
        subsequent step until one succeeds.
    fault_injector:
        Optional seeded :class:`FaultInjector` making some repair attempts
        raise :class:`TransientFault`; the simulator then retries under
        ``retry_policy``, charging (simulated) backoff to the step.
    retry_policy:
        Attempt/backoff schedule for transient failures (defaulted when a
        fault injector is attached).
    planner_config:
        Base config for the initial solve and every repair (its
        ``leveling`` is overridden by ``leveling``).  Fault campaigns
        should bound it — proving a degraded step *infeasible* with the
        default 500k-node RG budget can take minutes, while a tight
        ``rg_node_budget`` or ``time_limit_s`` turns that proof into a
        fast, honestly-reported outage.
    compile_cache:
        Warm-start compile cache (:class:`repro.parallel.CompileCache`)
        serving every compilation in the run: the initial solve, both
        compilations of every repair step, and from-scratch replans.  A
        repair step compiles its (app, network, leveling) key twice (the
        repair problem and the stitched validation), and fault recoveries
        revisit earlier network states, so repeated steps stop re-parsing
        and re-validating the unchanged app spec entirely.  Defaults to
        the process-global cache; pass ``None`` to compile fresh every
        time (the pre-cache behavior).  Results are identical either way
        — only wall clock changes, and timings are excluded from campaign
        records by default.
    delta_replanning:
        Compile repair problems via the cache's delta path
        (:meth:`~repro.parallel.CompileCache.compile_delta`): when the
        cache holds the previous network state, only the ground actions
        touching changed elements are re-ground.  Semantically
        transparent — campaign records are identical with the flag on or
        off (audited in ``tests/test_simulate.py``); only time-to-repair
        changes.  Ignored when ``compile_cache`` is ``None``.
    """

    _DEFAULT_CACHE = object()  # sentinel: "use the process-global cache"

    def __init__(
        self,
        app: AppSpec,
        network: Network,
        leveling: Leveling,
        migration_cost_factor: float = 0.5,
        replan_from_scratch_on_outage: bool = True,
        fault_injector: FaultInjector | None = None,
        retry_policy: RetryPolicy | None = None,
        planner_config: PlannerConfig | None = None,
        compile_cache=_DEFAULT_CACHE,
        delta_replanning: bool = False,
    ):
        self.app = app
        self.network = network
        self.leveling = leveling
        self.migration_cost_factor = migration_cost_factor
        self.replan_from_scratch_on_outage = replan_from_scratch_on_outage
        self.fault_injector = fault_injector
        self.retry_policy = retry_policy or RetryPolicy()
        self.planner_config = replace(planner_config or PlannerConfig(), leveling=leveling)
        self._planner = Planner(self.planner_config)
        if compile_cache is Simulation._DEFAULT_CACHE:
            from ..parallel import default_compile_cache

            compile_cache = default_compile_cache()
        self.compile_cache = compile_cache
        self.delta_replanning = delta_replanning

    def _solve(self, network: Network) -> Plan:
        """Full solve against ``network``, through the cache when present."""
        if self.compile_cache is None:
            return self._planner.solve(self.app, network)
        problem = self.compile_cache.compile(
            self.app,
            network,
            self.planner_config.leveling,
            self.planner_config.bound_overrides or None,
            self.planner_config.strict,
            metrics=(
                self.planner_config.telemetry.metrics
                if self.planner_config.telemetry is not None
                else None
            ),
        )
        return self._planner.solve(problem=problem)

    def run(self, events: list[Event]) -> SimulationResult:
        """Deploy, then apply every event in order, repairing after each.

        An infeasible *initial* deployment is part of the campaign record
        (``result.initial_failure``), not an exception — a fault campaign
        over many seeds must survive instances that start out unsolvable.
        """
        with timed("simulation.run") as clock:
            result = self._run(events)
        result.wall_ms = clock.duration_ms
        return result

    def _run(self, events: list[Event]) -> SimulationResult:
        try:
            plan = self._solve(self.network)
        except PlanningError as exc:
            return SimulationResult(
                initial_plan=None, initial_failure=f"{type(exc).__name__}: {exc}"
            )
        result = SimulationResult(initial_plan=plan)
        network = self.network
        deployment: Deployment | None = Deployment.from_plan(plan)

        for i, event in enumerate(events):
            network = apply_event(network, event)
            step = SimulationStep(
                index=i,
                event=event,
                survived_actions=0,
                repair_actions=0,
                repair_cost=0.0,
                total_plan_cost=0.0,
            )
            with timed("simulation.step") as step_clock:
                while True:
                    try:
                        if self.fault_injector is not None:
                            self.fault_injector.attempt(i, step.attempts)
                        deployment = self._step(step, network, deployment)
                    except TransientFault as exc:
                        step.transient_failures += 1
                        if step.attempts >= self.retry_policy.max_attempts:
                            step.failed = True
                            step.failure = f"{type(exc).__name__}: {exc}"
                            deployment = None
                            break
                        step.backoff_s += self.retry_policy.backoff_s(step.attempts)
                        step.attempts += 1
                        continue
                    except (PlanningError, ValueError) as exc:
                        # ValueError: app/network consistency validation rejects
                        # e.g. a partitioned network before planning even starts
                        # — an outage, not a campaign crash.
                        step.failed = True
                        step.failure = f"{type(exc).__name__}: {exc}"
                        deployment = None
                    break
            step.wall_ms = step_clock.duration_ms
            result.steps.append(step)
        return result

    def _step(
        self, step: SimulationStep, network: Network, deployment: Deployment | None
    ) -> Deployment:
        """One repair attempt; returns the post-step deployment."""
        if deployment is None:
            if not self.replan_from_scratch_on_outage:
                raise PlanningError("deployment lost and replanning disabled")
            fresh = self._solve(network)
            step.repair_actions = len(fresh)
            step.repair_cost = fresh.exact_cost
            step.total_plan_cost = fresh.exact_cost
            return Deployment.from_plan(fresh)
        repair = repair_deployment(
            self.app,
            network,
            deployment,
            leveling=self.leveling,
            migration_cost_factor=self.migration_cost_factor,
            planner_config=replace(self.planner_config),
            compile_cache=self.compile_cache,
            use_delta=self.delta_replanning,
        )
        step.survived_actions = len(repair.surviving_actions)
        step.repair_actions = len(repair.repair_plan)
        step.repair_cost = (
            repair.repair_plan.exact_cost if repair.repair_plan.actions else 0.0
        )
        # The deployment's exact cost after this step: surviving prefix
        # plus repair delta, measured undiscounted on the stitched
        # validation — not just the repair delta (which drops the prefix
        # and is cheapened by the migration discount).
        step.total_plan_cost = repair.total_cost
        return Deployment(problem=repair.repair_plan.problem, actions=repair.combined_actions())
