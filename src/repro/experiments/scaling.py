"""Network-size scaling beyond the paper's 93 nodes.

The paper evaluates one large network; this module sweeps two families
of transit-stub networks and measures how planning scales — the analysis
the paper's §6 proposes ("analyze the dependency between … and
performance of the algorithm"):

* the legacy *stub-size* family (:func:`scaling_network`): stubs grow,
  3 + 9·stub_size nodes — denser and denser LAN domains;
* the *domain-count* family (:func:`scaling_network_domains`): more and
  more 10-node stubs per transit node, 3 + 30·S nodes — the 1k–10k-node
  regime where hierarchical decomposition pays off.

All timings flow through the :mod:`repro.obs` machinery: each point runs
under a ``scaling.point`` span (wall time is the span duration) and the
per-phase numbers are read back from the ``planner.*`` metrics-registry
gauges the planner publishes — no raw clock arithmetic in this module.

:func:`scaling_compare_sweep` runs flat and hierarchical planning side
by side over the domain-count family; ``repro bench --hierarchical``
prints it as a table (``--json FILE`` writes the points).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..domains.media import build_app
from ..network import TransitStubParams, transit_stub_network
from ..obs import Telemetry
from ..planner import Planner, PlannerConfig, PlannerStats, PlanningError
from .scenarios import scenario

__all__ = [
    "ScalingPoint",
    "scaling_network",
    "scaling_sweep",
    "scaling_network_domains",
    "ComparePoint",
    "scaling_compare_sweep",
]


@dataclass
class ScalingPoint:
    """Measurements for one network size."""

    stub_size: int
    nodes: int
    links: int
    solved: bool
    ground_actions: int = 0
    plan_len: int = 0
    cost_lb: float = 0.0
    rg_nodes: int = 0
    compile_ms: float = 0.0
    search_ms: float = 0.0
    wall_ms: float = 0.0
    failure: str = ""

    def row(self) -> list[str]:
        if not self.solved:
            return [str(self.nodes), str(self.links), "—", "—", "—", "—", "—", self.failure]
        return [
            str(self.nodes),
            str(self.links),
            str(self.ground_actions),
            str(self.plan_len),
            f"{self.cost_lb:g}",
            str(self.rg_nodes),
            f"{self.compile_ms:.0f}",
            f"{self.search_ms:.0f}",
        ]


def scaling_network(stub_size: int, seed: int = 2004, node_cpu: float = 30.0):
    """A transit-stub network of 3 + 9·stub_size nodes with endpoints in
    stubs of different transit nodes."""
    params = TransitStubParams(stub_size=stub_size, node_cpu=node_cpu, seed=seed)
    net = transit_stub_network(params, name=f"scale-{params.node_count()}")
    server = "t0_0_s0_0"
    client = f"t0_2_s2_{stub_size - 1}"
    return net, server, client


def scaling_network_domains(stub_domains: int, seed: int = 2004, node_cpu: float = 30.0):
    """A transit-stub network of 3 + 30·stub_domains nodes.

    Stub size stays at the paper's 10 and the *number of stub domains
    per transit node* grows instead — the realistic way a transit-stub
    internet gets big, and the regime where the hierarchical planner's
    per-domain work stays constant while flat planning degrades.
    Endpoints sit in the first stub of the first transit node and the
    last stub of the last one.
    """
    params = TransitStubParams(
        stub_domains_per_transit=stub_domains, node_cpu=node_cpu, seed=seed
    )
    net = transit_stub_network(params, name=f"scale-{params.node_count()}")
    server = "t0_0_s0_0"
    client = f"t0_2_s{stub_domains - 1}_9"
    return net, server, client


def _timed_solve(planner_config: PlannerConfig, app, net):
    """One solve under a ``scaling.point`` span.

    Returns ``(plan_or_None, failure_name, stats, wall_ms)`` where
    ``stats`` is rebuilt from the ``planner.*`` registry gauges — the
    planner publishes them on success; on failure the gauges hold
    whatever phases completed, which is exactly what a scaling table
    should report for a timed-out point.
    """
    telemetry = Telemetry()
    config = replace(planner_config, telemetry=telemetry)
    plan = None
    failure = ""
    with telemetry.span("scaling.point", app=app.name, network=net.name) as sp:
        try:
            plan = Planner(config).solve(app, net)
        except PlanningError as exc:
            failure = type(exc).__name__
    stats = plan.stats if plan is not None else PlannerStats.from_metrics(telemetry.metrics)
    return plan, failure, stats, sp.duration_ms


def scaling_sweep(
    stub_sizes: tuple[int, ...] = (2, 5, 10, 15, 20),
    scenario_key: str = "C",
    seed: int = 2004,
    rg_node_budget: int = 200_000,
) -> list[ScalingPoint]:
    """Plan the media delivery across the legacy stub-size family."""
    scen = scenario(scenario_key)
    points: list[ScalingPoint] = []
    for stub_size in stub_sizes:
        net, server, client = scaling_network(stub_size, seed=seed)
        point = ScalingPoint(
            stub_size=stub_size, nodes=len(net), links=len(net.links), solved=False
        )
        app = build_app(server, client)
        config = PlannerConfig(leveling=scen.leveling(), rg_node_budget=rg_node_budget)
        plan, failure, stats, wall_ms = _timed_solve(config, app, net)
        point.wall_ms = wall_ms
        point.compile_ms = stats.compile_ms
        point.search_ms = stats.search_ms
        if plan is None:
            point.failure = failure
        else:
            point.solved = True
            point.ground_actions = plan.stats.total_actions
            point.plan_len = len(plan)
            point.cost_lb = plan.cost_lb
            point.rg_nodes = plan.stats.rg_nodes
        points.append(point)
    return points


@dataclass
class ComparePoint:
    """Flat vs hierarchical planning on one domain-count network."""

    stub_domains: int
    nodes: int
    links: int
    flat_solved: bool = False
    flat_ms: float = 0.0
    flat_cost: float = 0.0
    flat_failure: str = ""
    hier_solved: bool = False
    hier_ms: float = 0.0
    hier_cost: float = 0.0
    hier_mode: str = ""
    hier_domains: int = 0
    hier_plan_len: int = 0

    @property
    def cost_delta(self) -> float | None:
        """Hierarchical minus flat cost, when both solved (0 == parity)."""
        if not (self.flat_solved and self.hier_solved):
            return None
        return self.hier_cost - self.flat_cost

    @property
    def speedup(self) -> float | None:
        """Flat wall time over hierarchical wall time, when both solved."""
        if not (self.flat_solved and self.hier_solved) or self.hier_ms <= 0:
            return None
        return self.flat_ms / self.hier_ms

    def to_dict(self) -> dict:
        return {
            "stub_domains": self.stub_domains,
            "nodes": self.nodes,
            "links": self.links,
            "flat": {
                "solved": self.flat_solved,
                "wall_ms": round(self.flat_ms, 3),
                "cost_lb": self.flat_cost,
                "failure": self.flat_failure,
            },
            "hierarchical": {
                "solved": self.hier_solved,
                "wall_ms": round(self.hier_ms, 3),
                "cost_lb": self.hier_cost,
                "mode": self.hier_mode,
                "domains": self.hier_domains,
                "plan_len": self.hier_plan_len,
            },
            "cost_delta": self.cost_delta,
            "speedup": None if self.speedup is None else round(self.speedup, 2),
        }


def scaling_compare_sweep(
    stub_domains: tuple[int, ...] = (4, 11, 33),
    scenario_key: str = "C",
    seed: int = 2004,
    rg_node_budget: int = 200_000,
    flat_time_limit_s: float | None = 120.0,
    flat_max_nodes: int | None = None,
    workers: int = 1,
) -> list[ComparePoint]:
    """Flat vs hierarchical planning over the domain-count family.

    ``flat_time_limit_s`` bounds each flat solve (a timed-out point
    records its failure and elapsed wall time); ``flat_max_nodes`` skips
    flat planning entirely above a size, for sweeps whose largest
    networks would otherwise dominate the run.  Hierarchical planning
    runs with ``workers`` domain workers and the standard fallback
    ladder — its mode is recorded per point, so a sweep that silently
    degraded to flat planning is visible in the output.
    """
    # Local import: repro.hierarchy imports repro.planner.
    from ..hierarchy import HierarchyConfig, solve_hierarchical

    scen = scenario(scenario_key)
    points: list[ComparePoint] = []
    for count in stub_domains:
        net, server, client = scaling_network_domains(count, seed=seed)
        app = build_app(server, client)
        point = ComparePoint(stub_domains=count, nodes=len(net), links=len(net.links))

        if flat_max_nodes is None or len(net) <= flat_max_nodes:
            config = PlannerConfig(
                leveling=scen.leveling(),
                rg_node_budget=rg_node_budget,
                time_limit_s=flat_time_limit_s,
                anytime=False,
            )
            plan, failure, _stats, wall_ms = _timed_solve(config, app, net)
            point.flat_ms = wall_ms
            if plan is None:
                point.flat_failure = failure
            else:
                point.flat_solved = True
                point.flat_cost = plan.cost_lb
        else:
            point.flat_failure = "skipped"

        telemetry = Telemetry()
        with telemetry.span("scaling.point", network=net.name, mode="hier") as sp:
            try:
                outcome = solve_hierarchical(
                    app,
                    net,
                    leveling=scen.leveling(),
                    config=HierarchyConfig(workers=workers),
                    planner_config=PlannerConfig(rg_node_budget=rg_node_budget),
                    telemetry=telemetry,
                )
            except PlanningError as exc:
                outcome = None
                point.hier_mode = type(exc).__name__
        point.hier_ms = sp.duration_ms
        if outcome is not None and outcome.solved:
            point.hier_solved = True
            point.hier_cost = outcome.plan.cost_lb
            point.hier_mode = outcome.mode
            point.hier_domains = outcome.domains
            point.hier_plan_len = len(outcome.plan)
        points.append(point)
    return points
