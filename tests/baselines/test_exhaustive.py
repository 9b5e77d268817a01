"""Unit tests for the exhaustive optimal oracle."""

import pytest

from repro.baselines import exhaustive_optimal
from repro.compile import compile_problem
from repro.domains.media import build_app, proportional_leveling
from repro.model import AppSpec, ComponentSpec, Leveling, LevelSpec, bandwidth_interface
from repro.network import Network, pair_network
from repro.planner import Planner, PlannerConfig


def tiny_problem(cuts=(90, 100), cpu=30.0, link=70.0):
    return compile_problem(
        build_app("n0", "n1"),
        pair_network(cpu=cpu, link_bw=link),
        proportional_leveling(cuts),
    )


def triangle_chain_problem():
    """Source → two stages → sink over a three-node triangle.

    Every action costs about a tenth of the bandwidth it handles, and the
    sink needs 180 of the source's 200, so the cheap low-level crossings
    are dead ends that a depth-7 search can chain in many orders.
    """
    ifaces = [
        bandwidth_interface(f"S{i}", cross_cost=f"1 + S{i}.ibw/10") for i in range(3)
    ]
    comps = [ComponentSpec.parse("Source", implements=["S0"], effects=["S0.ibw := 200"])]
    for i, div in enumerate((10, 20)):
        comps.append(
            ComponentSpec.parse(
                f"Stage{i}",
                requires=[f"S{i}"],
                implements=[f"S{i + 1}"],
                conditions=[f"Node.cpu >= S{i}.ibw/{div}"],
                effects=[f"S{i + 1}.ibw := S{i}.ibw", f"Node.cpu -= S{i}.ibw/{div}"],
                cost=f"1 + S{i}.ibw/10",
            )
        )
    comps.append(
        ComponentSpec.parse("Sink", requires=["S2"], conditions=["S2.ibw >= 180"], cost="1")
    )
    net = Network("triangle")
    for name, cpu in (("n0", 25.0), ("n1", 10.0), ("n2", 200.0)):
        net.add_node(name, {"cpu": cpu})
    for a, b, bw in (("n0", "n1", 250.0), ("n1", "n2", 250.0), ("n0", "n2", 120.0)):
        net.add_link(a, b, {"lbw": bw}, labels={"L"})
    app = AppSpec.build(
        "triangle",
        interfaces=ifaces,
        components=comps,
        initial=[("Source", "n0")],
        goals=[("Sink", "n2")],
    )
    cuts = LevelSpec((50.0, 100.0, 200.0))
    leveling = Leveling(
        {"S0.ibw": LevelSpec((50.0,)), "S1.ibw": cuts, "S2.ibw": cuts}, name="triangle"
    )
    return compile_problem(app, net, leveling)


class TestOracle:
    def test_finds_seven_action_plan(self):
        problem = tiny_problem()
        result = exhaustive_optimal(problem, max_depth=7)
        assert result is not None
        assert len(result.actions) == 7

    def test_none_when_depth_too_small(self):
        problem = tiny_problem()
        assert exhaustive_optimal(problem, max_depth=3) is None

    def test_direct_connection_is_optimal_on_wide_link(self):
        problem = tiny_problem(cpu=100.0, link=250.0)
        result = exhaustive_optimal(problem, max_depth=4)
        assert result is not None
        assert len(result.actions) == 2  # cross M + place Client

    def test_planner_matches_oracle_cost(self):
        """On the Tiny problem the leveled planner's plan is exactly the
        oracle-optimal plan (same exact cost)."""
        problem = tiny_problem()
        oracle = exhaustive_optimal(problem, max_depth=7)
        plan = Planner(
            PlannerConfig(leveling=proportional_leveling((90, 100)))
        ).solve(problem=problem)
        assert oracle is not None
        assert plan.exact_cost == pytest.approx(oracle.exact_cost)

    def test_oracle_cost_not_above_any_plan(self):
        problem = tiny_problem()
        oracle = exhaustive_optimal(problem, max_depth=7)
        plan = Planner(
            PlannerConfig(leveling=proportional_leveling((90, 100)))
        ).solve(problem=problem)
        assert oracle.exact_cost <= plan.exact_cost + 1e-9

    def test_dead_end_prefixes_are_cut_before_execution(self):
        """Prefixes that cannot reach the goal in the remaining depth are
        not explored: the instance stays far inside a 200k-state budget
        (a search that explores them visits over four million states)."""
        problem = triangle_chain_problem()
        assert len(problem.actions) == 75
        result = exhaustive_optimal(problem, max_depth=7, node_limit=200_000)
        assert result is not None
        assert result.exact_cost == pytest.approx(85.0)
        assert len(result.actions) == 5
        assert result.actions[-1].name.startswith("place(Sink,n2)")
