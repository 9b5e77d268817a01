"""Round-trip and loud-failure tests for the pool envelopes.

Every envelope must survive ``pickle`` byte-for-byte semantically (the
process pool is spawn-started, so *everything* crossing the boundary is
pickled), and anything unpicklable must fail with the offending
attribute path named — not an opaque ``PicklingError`` deep inside
multiprocessing.
"""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.domains import media
from repro.network import chain_network
from repro.obs import Telemetry
from repro.parallel import (
    EnvelopeError,
    MetricsSnapshot,
    PlanEnvelope,
    check_picklable,
)
from repro.planner import Planner, PlannerConfig, PlannerStats

LEV = media.proportional_leveling((90, 100))


def small_instance():
    net = chain_network([(150, "LAN"), (150, "LAN")], cpu=30.0)
    return media.build_app("n0", "n2"), net


def solved_plan():
    app, net = small_instance()
    return Planner(PlannerConfig(leveling=LEV)).solve(app, net)


class TestPlanEnvelope:
    def test_round_trip_and_restore(self):
        from repro.compile import compile_problem

        plan = solved_plan()
        env = PlanEnvelope.from_plan(plan)
        env.validate()
        clone = pickle.loads(pickle.dumps(env))
        assert clone.actions == tuple(plan.action_names())
        assert clone.cost_lb == plan.cost_lb
        assert clone.stats.rg_nodes == plan.stats.rg_nodes
        app, net = small_instance()
        restored = clone.restore(compile_problem(app, net, LEV))
        assert [a.name for a in restored.actions] == list(plan.action_names())
        assert restored.cost_lb == plan.cost_lb
        assert restored.stats is clone.stats

    def test_restore_on_wrong_problem_raises(self):
        from repro.compile import compile_problem

        plan = solved_plan()
        env = PlanEnvelope.from_plan(plan)
        app, net = small_instance()
        other = compile_problem(app, net, None)  # different leveling: names differ
        with pytest.raises(KeyError):
            env.restore(other)


class TestMetricsSnapshot:
    def test_round_trip_merges_into_registry(self):
        tele = Telemetry()
        tele.metrics.inc("cache.hit", 3)
        tele.metrics.observe("rg.f_value", 7.0)
        snap = pickle.loads(pickle.dumps(MetricsSnapshot.from_telemetry(tele)))
        other = Telemetry()
        snap.merge_into(other.metrics)
        assert other.metrics.counter("cache.hit").value == 3
        assert other.metrics.histogram("rg.f_value").count == 1

    def test_none_telemetry_is_empty(self):
        snap = MetricsSnapshot.from_telemetry(None)
        assert snap.records == ()
        snap.merge_into(None)  # no-op, no crash


# -- hypothesis: stats/metrics survive arbitrary values ------------------------

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
    env = PlanEnvelope(
        actions=("a", "b"), cost_lb=1.0, exact_cost=2.0, stats=stats
    )
    clone = pickle.loads(pickle.dumps(env))
    assert clone.stats.rg_nodes == rg_nodes
    assert clone.stats.total_ms == total_ms
    assert clone.stats.incumbent == incumbent


@settings(max_examples=50, deadline=None)
@given(
    names=st.lists(
        st.text(alphabet="abcxyz.", min_size=1, max_size=12), min_size=0, max_size=5
    ),
    values=st.lists(counts, min_size=5, max_size=5),
)
def test_metrics_snapshot_round_trip(names, values):
    tele = Telemetry()
    for name, value in zip(names, values):
        tele.metrics.inc(f"c.{name}", value)
    snap = MetricsSnapshot.from_telemetry(tele)
    clone = pickle.loads(pickle.dumps(snap))
    other = Telemetry()
    clone.merge_into(other.metrics)
    for name, value in zip(names, values):
        # duplicate names accumulate in the source registry already
        assert other.metrics.counter(f"c.{name}").value == tele.metrics.counter(
            f"c.{name}"
        ).value


# -- loud failure diagnosis ----------------------------------------------------

class TestCheckPicklable:
    def test_passes_on_plain_data(self):
        check_picklable({"a": [1, 2, (3, "x")]})

    def test_names_offending_dict_key(self):
        bad = {"fine": 1, "broken": lambda: None}
        with pytest.raises(EnvelopeError) as err:
            check_picklable(bad, "payload")
        assert "payload['broken']" in str(err.value)

    def test_names_offending_nested_attribute(self):
        class Holder:
            def __init__(self):
                self.ok = 3
                self.inner = {"deep": (lambda: None,)}

        with pytest.raises(EnvelopeError) as err:
            check_picklable(Holder(), "holder")
        assert "holder.inner['deep'][0]" in str(err.value)

    def test_envelope_with_closure_field_fails_loudly(self):
        env = PlanEnvelope(
            actions=("a",),
            cost_lb=0.0,
            exact_cost=0.0,
            stats=PlannerStats(),
            app="x",
        )
        # A frozen dataclass can't grow attributes, so smuggle the closure
        # into a field value instead.
        bad = {"env": env, "hook": lambda: None}
        with pytest.raises(EnvelopeError) as err:
            check_picklable(bad, "task")
        assert "task['hook']" in str(err.value)


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
