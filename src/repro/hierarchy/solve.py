"""The hierarchical solve entry point and its rungs of the solve ladder.

:func:`solve_hierarchical` is the domain-decomposed counterpart of
:meth:`repro.planner.Planner.solve`.  It never grounds the full network:
the backbone is planned over the tiny abstract network, each involved
stub domain is planned over its own members, and only the *union
subnetwork* (involved stubs + backbone) is compiled to validate the
stitched result — at 10k nodes that is the difference between grounding
tens of nodes and grounding all ten thousand.

Correctness comes from the exact executor, not from the decomposition:
the stitched sequence must execute cleanly on the union subnetwork, and
by locality of execution (see :mod:`repro.hierarchy.stitch`) that
certificate transfers verbatim to the full network.  Whenever a stage
misses, the solve ladder (:mod:`repro.planner.robust`) walks down:
``hierarchical`` (:func:`plan_decomposed`) → ``widened`` (flat planning
on the union subnetwork) → ``flat`` (bit-for-bit a non-hierarchical
solve), all sharing the partition held by one :class:`Region`.

With telemetry attached, the stages run under ``hierarchy.partition`` /
``hierarchy.abstract`` / ``hierarchy.stitch`` spans, the
``hierarchy.domains`` counter records fan-out width, and
``hierarchy.stitch.retries`` counts every rung the ladder had to walk.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..model import AppSpec, Leveling
from ..network import Network
from ..network.partition import partition_transit_stub
from ..obs import Telemetry, maybe_span
from ..planner.plan import Plan
from ..planner.planner import Planner, PlannerConfig
from ..planner.robust import SolveOutcome, ladder, run_ladder
from ..planner.stats import PlannerStats
from .abstraction import abstract_network
from .contracts import abstracted_app, build_domain_problem, derive_contracts
from .stitch import StitchError, stitch_hierarchical

__all__ = ["HierarchyConfig", "HierarchyOutcome", "Region", "solve_hierarchical"]

DOMAIN_RG_NODE_BUDGET = 200_000
BACKBONE_RG_NODE_BUDGET = 200_000


@dataclass(frozen=True)
class HierarchyConfig:
    """Knobs of the hierarchical path (``PlannerConfig.hierarchy``)."""

    workers: int = 1
    """Domain-subproblem fan-out width.  ``1`` solves domains in-process
    (same task payloads, same results — byte-identical by construction);
    ``>1`` dispatches over a supervised spawn pool."""


@dataclass
class HierarchyOutcome(SolveOutcome):
    """What the hierarchical ladder produced, and how it got there."""

    domains: int = 0  # stub domains hosting the app (0 when unpartitioned)

    @property
    def mode(self) -> str:
        """The winning rung: ``hierarchical``, ``widened`` or ``flat``."""
        return "flat" if self.winner == "full" else self.winner

    @property
    def stitch_retries(self) -> int:
        """Rungs walked after the hierarchical one missed."""
        return max(len(self.attempts) - 1, 0)

    def describe(self) -> str:
        if not self.solved:
            return super().describe()
        lines = [a.describe() for a in self.attempts]
        lines.append(
            f"=> {self.mode} plan: {len(self.plan)} actions, "
            f"cost lower bound {self.plan.cost_lb:g}"
        )
        return "\n".join(lines)


def solve_hierarchical(
    app: AppSpec,
    network: Network,
    leveling: Leveling | None = None,
    config: HierarchyConfig | None = None,
    planner_config: PlannerConfig | None = None,
    telemetry: Telemetry | None = None,
) -> HierarchyOutcome:
    """Solve by domain decomposition, falling back to flat planning.

    ``planner_config`` seeds the flat-planner settings used at every
    stage (budgets, validation, static pruning ...); ``leveling`` and
    ``telemetry`` default from it, and its ``time_limit_s`` bounds the
    whole walk.  Planning failures that no rung can absorb (e.g. a
    logically unsolvable goal, reported by the final flat rung) propagate
    as the usual :class:`~repro.planner.PlanningError` subclasses so
    callers see exactly what a flat solve would raise.
    """
    base = planner_config or PlannerConfig()
    if leveling is None:
        leveling = base.leveling
    tele = telemetry if telemetry is not None else base.telemetry
    base = replace(
        base, leveling=leveling, telemetry=tele, hierarchy=config or HierarchyConfig()
    )
    region = Region(app, network, tele)
    rungs = ladder(leveling, hierarchy=True, degrade=False)
    outcome = run_ladder(app, network, rungs, base, reraise=True, region=region)
    return HierarchyOutcome(
        outcome.plan, outcome.winner, outcome.attempts, domains=len(region.involved)
    )


class Region:
    """The transit-stub partition of a network and an app's union subnetwork.

    Computed once, on first use, and shared by the hierarchical and
    widened rungs of one ladder walk.  :meth:`partition` raises
    :class:`~repro.network.PartitionError` when the network does not
    decompose.
    """

    def __init__(self, app: AppSpec, network: Network, telemetry: Telemetry | None):
        self.app = app
        self.network = network
        self.telemetry = telemetry
        self.involved: frozenset[str] = frozenset()
        self._partition = None
        self._union: Network | None = None

    def partition(self):
        if self._partition is None:
            tele, app = self.telemetry, self.app
            with maybe_span(tele, "hierarchy.partition", network=self.network.name) as span:
                partition = partition_transit_stub(self.network)
                # The stub domains hosting pinned / placed components.
                nodes = {p.node for p in app.initial_placements + app.goal_placements}
                nodes |= set(app.pinned.values())
                self.involved = frozenset(
                    d.key for d in map(partition.domain_of, nodes) if d is not None
                )
                if span is not None:
                    span.attrs.update(
                        domains=len(partition.domains), involved=len(self.involved)
                    )
            if tele is not None:
                tele.metrics.inc("hierarchy.domains", len(self.involved))
            self._partition = partition
        return self._partition

    def union_network(self) -> Network:
        """Backbone plus the involved stub domains, concrete and verbatim."""
        if self._union is None:
            partition = self.partition()
            keep = set(partition.transit_nodes)
            for domain in partition.domains:
                if domain.key in self.involved:
                    keep |= set(domain.members)
            net = self.network
            union = Network(f"{net.name}#union")
            for node_id in sorted(keep):
                node = net.node(node_id)
                union.add_node(
                    node_id, dict(node.resources), labels=set(node.labels), software=node.software
                )
            for link in net.links.values():
                if link.a in keep and link.b in keep:
                    union.add_link(link.a, link.b, dict(link.resources), labels=set(link.labels))
            self._union = union
        return self._union


def plan_decomposed(
    app: AppSpec,
    network: Network,
    region: Region,
    config: PlannerConfig,
    workers: int,
) -> Plan:
    """The hierarchical rung: abstract, plan the backbone, fan out, stitch.

    Raises :class:`~repro.network.PartitionError`,
    :class:`~repro.hierarchy.contracts.ContractError`,
    :class:`StitchError` or a planner error when a stage misses.
    """
    tele = config.telemetry
    partition = region.partition()
    involved = region.involved
    with maybe_span(tele, "hierarchy.abstract", included=len(involved)):
        abstraction = abstract_network(network, partition, involved)
        abs_app = abstracted_app(app, abstraction)
        abs_config = replace(config, rg_node_budget=BACKBONE_RG_NODE_BUDGET, validate=True)
        abs_plan = Planner(abs_config).solve(abs_app, abstraction.network)
        decomposition = derive_contracts(abs_plan.problem, abs_plan.actions, abstraction)

    domain_problems = [
        build_domain_problem(app, network, domain, decomposition.domain_contracts(domain.key))
        for domain in abstraction.included
    ]
    results = _solve_domains(domain_problems, config.leveling, workers, tele)
    failed = [r for r in results if not r.solved]
    if failed:
        raise StitchError(
            "domain subproblems failed: "
            + ", ".join(f"{r.domain} ({r.failure})" for r in failed)
        )

    with maybe_span(tele, "hierarchy.stitch", domains=len(results)) as span:
        union_problem = Planner(config).compile(app, region.union_network())
        actions, report = stitch_hierarchical(
            union_problem,
            decomposition,
            {r.domain: r.action_names for r in results},
            {p.domain.key: p.synthetic_components for p in domain_problems},
        )
        if span is not None:
            span.attrs.update(actions=len(actions), cost=report.total_cost)
    stats = PlannerStats(
        total_actions=len(union_problem.actions),
        compile_ms=union_problem.compile_seconds * 1e3,
    )
    plan = Plan(
        problem=union_problem,
        actions=actions,
        cost_lb=sum(a.cost_lb for a in actions),
        stats=stats,
    )
    plan._report = report
    return plan


def _solve_domains(domain_problems, leveling, workers: int, tele):
    """Fan the domain subproblems out (or solve them in-process).

    Task payloads are derived from the abstract plan alone, so serial
    and parallel runs hand identical inputs to identical solvers —
    results are byte-identical at any worker count.
    """
    from ..parallel.workers import DomainTask, run_domain_task

    tasks = [
        DomainTask(
            domain=p.domain.key,
            app=p.app,
            network=p.network,
            leveling=leveling,
            rg_node_budget=DOMAIN_RG_NODE_BUDGET,
            with_metrics=tele is not None,
            trace=tele.current_context() if tele is not None else None,
        )
        for p in sorted(domain_problems, key=lambda p: p.domain.key)
    ]
    if not tasks:
        return []
    if workers <= 1 or len(tasks) == 1:
        results = [run_domain_task(task) for task in tasks]
    else:
        from ..parallel import Supervisor, resolve_workers

        with Supervisor(resolve_workers(workers, len(tasks)), telemetry=tele) as pool:
            results = pool.map(run_domain_task, tasks)
    if tele is not None:
        for index, result in enumerate(results):
            tele.stitch_snapshot(result.metrics, worker=index % max(workers, 1))
            result.metrics.merge_into(tele.metrics)
    return results
