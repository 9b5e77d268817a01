"""Round-trip tests for what crosses the worker process boundary.

The worker pool is spawn-started, so *everything* crossing the boundary
is pickled: compiled problems and plans must survive it, and a raced
rung's stats must come home intact beside its plan's action names.
"""

import pickle

from hypothesis import given, settings, strategies as st

from repro.domains import media
from repro.network import chain_network
from repro.parallel import RungOutcome
from repro.planner import Planner, PlannerConfig, PlannerStats

LEV = media.proportional_leveling((90, 100))


def small_instance():
    net = chain_network([(150, "LAN"), (150, "LAN")], cpu=30.0)
    return media.build_app("n0", "n2"), net


def solved_plan():
    app, net = small_instance()
    return Planner(PlannerConfig(leveling=LEV)).solve(app, net)


# -- hypothesis: stats survive arbitrary values --------------------------------

finite = st.floats(allow_nan=False, allow_infinity=False, width=32)
counts = st.integers(min_value=0, max_value=10**9)


@settings(max_examples=50, deadline=None)
@given(
    rg_nodes=counts,
    total_ms=finite,
    compile_ms=finite,
    incumbent=st.integers(min_value=0, max_value=1),
)
def test_planner_stats_envelope_round_trip(rg_nodes, total_ms, compile_ms, incumbent):
    stats = PlannerStats(
        rg_nodes=rg_nodes, total_ms=total_ms, compile_ms=compile_ms, incumbent=incumbent
    )
    outcome = RungOutcome(attempt=None, plan={"format": 1, "actions": ["a", "b"]}, stats=stats)
    clone = pickle.loads(pickle.dumps(outcome))
    assert clone.stats.rg_nodes == rg_nodes
    assert clone.stats.total_ms == total_ms
    assert clone.stats.incumbent == incumbent


class TestCompiledArtifactsPickle:
    """The PR's enabling fix: ground actions survive pickling."""

    def test_compiled_problem_round_trips_and_replays(self):
        from repro.compile import compile_problem
        from repro.planner import Planner, PlannerConfig

        app, net = small_instance()
        problem = compile_problem(app, net, LEV)
        clone = pickle.loads(pickle.dumps(problem))
        assert [a.name for a in clone.actions] == [a.name for a in problem.actions]
        p1 = Planner(PlannerConfig(leveling=LEV)).solve(problem=problem)
        p2 = Planner(PlannerConfig(leveling=LEV)).solve(problem=clone)
        assert [a.name for a in p1.actions] == [a.name for a in p2.actions]
        assert p1.cost_lb == p2.cost_lb

    def test_plan_round_trips(self):
        plan = solved_plan()
        clone = pickle.loads(pickle.dumps(plan))
        assert [a.name for a in clone.actions] == list(plan.action_names())
