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
from ..obs import Telemetry, timed
from ..planner import PlannerConfig
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

    initial_deployment: tuple[str, ...] | None
    """The initial deployment as ground-action names (``None`` when it
    failed)."""
    initial_cost: float = 0.0
    """The initial deployment's exact cost."""
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
        if self.initial_deployment is None:
            return f"initial deployment FAILED: {self.initial_failure}"
        lines = [f"initial deployment: {len(self.initial_deployment)} actions, "
                 f"exact cost {self.initial_cost:g}"]
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
                    "actions": len(self.initial_deployment),
                    "exact_cost": self.initial_cost,
                }
                if self.initial_deployment is not None
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

    The initial deployment and every repair run through the fleet
    controller's repair core (:func:`repro.simulate.controller.repair_member`),
    one :class:`~repro.parallel.RepairTask` at a time; between steps the
    deployment travels as a tuple of ground-action names.

    Parameters
    ----------
    migration_cost_factor:
        Passed through to :func:`~repro.planner.repair_by_names`.
    replan_from_scratch_on_outage:
        When an event leaves the deployment unrepairable (e.g. the network
        partitioned), later events may restore connectivity; with this
        flag (default) the simulator attempts a full re-deployment at each
        subsequent step until one succeeds.  The initial deployment is
        always attempted.
    fault_injector:
        Optional seeded :class:`FaultInjector` making some repair attempts
        raise :class:`TransientFault`; the simulator then retries under
        ``retry_policy``, charging (simulated) backoff to the step.
    retry_policy:
        Attempt/backoff schedule for transient failures (defaulted when a
        fault injector is attached).
    rg_node_budget, time_limit_s:
        Bounds on every solve (the initial one, each repair, each
        from-scratch redeploy); the budget defaults to the planner's.
        Fault campaigns should bound them — proving a degraded step
        *infeasible* with the default 500k-node RG budget can take
        minutes, while a tight ``rg_node_budget`` or ``time_limit_s``
        turns that proof into a fast, honestly-reported outage.
    telemetry:
        Receives every solve's planner metrics and compile provenance.
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
        rg_node_budget: int = PlannerConfig.rg_node_budget,
        time_limit_s: float | None = None,
        telemetry: Telemetry | None = None,
        compile_cache=_DEFAULT_CACHE,
        delta_replanning: bool = False,
    ):
        from ..parallel import RepairTask

        # Every solve is this task with the current network and
        # deployment filled in.
        self.task = RepairTask(
            app=app,
            network=network,
            leveling=leveling,
            deployment_names=None,
            migration_cost_factor=migration_cost_factor,
            rg_node_budget=rg_node_budget,
            time_limit_s=time_limit_s,
            use_delta=delta_replanning,
            replan_from_scratch=replan_from_scratch_on_outage,
        )
        self.fault_injector = fault_injector
        self.retry_policy = retry_policy or RetryPolicy()
        self.telemetry = telemetry
        if compile_cache is Simulation._DEFAULT_CACHE:
            from ..parallel import default_compile_cache

            compile_cache = default_compile_cache()
        self.compile_cache = compile_cache

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
        from .controller import repair_member

        def repair(task):
            return repair_member(
                task, telemetry=self.telemetry, compile_cache=self.compile_cache
            )

        initial = repair(replace(self.task, replan_from_scratch=True))
        if initial.failed:
            return SimulationResult(
                initial_deployment=None, initial_failure=initial.failure
            )
        result = SimulationResult(
            initial_deployment=initial.deployment_names, initial_cost=initial.total_cost
        )
        network = self.task.network
        names: tuple[str, ...] | None = initial.deployment_names

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
                while self.fault_injector is not None:
                    try:
                        self.fault_injector.attempt(i, step.attempts)
                        break
                    except TransientFault as exc:
                        step.transient_failures += 1
                        if step.attempts >= self.retry_policy.max_attempts:
                            step.failed = True
                            step.failure = f"{type(exc).__name__}: {exc}"
                            break
                        step.backoff_s += self.retry_policy.backoff_s(step.attempts)
                        step.attempts += 1
                if not step.failed:
                    outcome = repair(
                        replace(self.task, network=network, deployment_names=names)
                    )
                    step.failed = outcome.failed
                    step.failure = outcome.failure
                    step.survived_actions = outcome.survived
                    step.repair_actions = outcome.repaired
                    step.repair_cost = outcome.repair_cost
                    # The deployment's exact cost after this step: surviving
                    # prefix plus repair delta, measured undiscounted on the
                    # stitched validation — not just the repair delta (which
                    # drops the prefix and is cheapened by the migration
                    # discount).
                    step.total_plan_cost = outcome.total_cost
                names = None if step.failed else outcome.deployment_names
            step.wall_ms = step_clock.duration_ms
            result.steps.append(step)
        return result
