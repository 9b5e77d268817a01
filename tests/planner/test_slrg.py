"""Unit tests for phase 2 (SLRG set costs)."""

import math

import pytest

from repro.compile import AvailProp, compile_problem
from repro.domains.media import build_app, proportional_leveling
from repro.experiments import scaling_network, scenario
from repro.network import pair_network
from repro.planner import SLRG, Planner, PlannerConfig, build_plrg
from repro.planner import planner as planner_module


@pytest.fixture
def setup():
    problem = compile_problem(
        build_app("n0", "n1"),
        pair_network(cpu=30.0, link_bw=70.0),
        proportional_leveling((90, 100)),
    )
    plrg = build_plrg(problem)
    return problem, plrg, SLRG(problem, plrg)


class TestSetCosts:
    def test_initially_satisfied_set_is_free(self, setup):
        problem, _plrg, slrg = setup
        assert slrg.query(frozenset(problem.initial_prop_ids)) == 0.0

    def test_singleton_matches_plrg_when_chain(self, setup):
        problem, plrg, slrg = setup
        pid = problem.props.index[AvailProp("T", "n0", (1,))]
        assert slrg.query(frozenset((pid,))) == pytest.approx(plrg.cost(pid))

    def test_set_cost_at_least_hmax(self, setup):
        """The paper: SLRG estimates dominate the PLRG bound."""
        problem, plrg, slrg = setup
        t = problem.props.index[AvailProp("T", "n1", (1,))]
        i = problem.props.index[AvailProp("I", "n1", (1,))]
        s = frozenset((t, i))
        assert slrg.query(s) >= plrg.set_cost(s) - 1e-9

    def test_sequencing_exceeds_max(self, setup):
        """Two streams crossing the same link must pay both crossings —
        the paper's 18 -> 19 example shape."""
        problem, plrg, slrg = setup
        t = problem.props.index[AvailProp("Z", "n1", (1,))]
        i = problem.props.index[AvailProp("I", "n1", (1,))]
        s = frozenset((t, i))
        # hmax would count only the costlier chain; the true logical cost
        # adds the other stream's crossing too.
        assert slrg.query(s) > plrg.set_cost(s) + 1.0

    def test_goal_query_caches(self, setup):
        problem, _plrg, slrg = setup
        g = frozenset(problem.goal_prop_ids)
        first = slrg.query(g)
        queries_before = slrg.queries
        second = slrg.query(g)
        assert first == second
        assert slrg.queries == queries_before  # cache hit, no new search

    def test_unreachable_set_infinite(self, setup):
        problem, _plrg, slrg = setup
        assert math.isinf(slrg.query(frozenset((10**9,))))


class TestBudget:
    def test_budget_falls_back_to_hmax(self):
        problem = compile_problem(
            build_app("n0", "n1"),
            pair_network(cpu=30.0, link_bw=70.0),
            proportional_leveling((30, 70, 90, 100)),
        )
        plrg = build_plrg(problem)
        slrg = SLRG(problem, plrg, node_budget=1)
        g = frozenset(problem.goal_prop_ids)
        got = slrg.query(g)
        assert got == pytest.approx(plrg.set_cost(g))
        assert slrg.budget_hits >= 1

    def test_node_counter_grows(self):
        problem = compile_problem(
            build_app("n0", "n1"),
            pair_network(cpu=30.0, link_bw=70.0),
            proportional_leveling((90, 100)),
        )
        plrg = build_plrg(problem)
        slrg = SLRG(problem, plrg)
        slrg.query(frozenset(problem.goal_prop_ids))
        assert slrg.nodes_created > 0


@pytest.mark.xfail(
    strict=True,
    reason="a query that pops an open set with a memoized cost returns g + cached "
    "without checking its heap for anything cheaper, and memoizes that total",
)
def test_memoized_answers_match_fresh_queries(monkeypatch):
    """Every set cost the RG asks for equals a fresh SLRG's answer.

    It does not today: on the first flat-search benchmark pair the memo
    returns 1.0 more than a fresh query for some sets, so an answer
    depends on the queries before it.
    """
    queries = []
    search = planner_module.regression_search

    def spy(problem, heuristic, *args, **kwargs):
        def recorded(props):
            queries.append((props, heuristic(props)))
            return queries[-1][1]

        spy.slrg = heuristic.__self__
        return search(problem, recorded, *args, **kwargs)

    monkeypatch.setattr(planner_module, "regression_search", spy)
    Planner(PlannerConfig(leveling=scenario("B").leveling())).solve(
        build_app("t0_1_s2_1", "t0_0_s0_0"), scaling_network(3)[0]
    )
    memo = spy.slrg
    assert queries
    for props, got in queries:
        assert got == SLRG(memo.problem, memo.plrg).query(props)
