"""Ground actions build their replay program on first replay, not at grounding.

Grounding instantiates one leveled action per (component, node) and per
(interface, directed link), but the search replays only a few of them.
These tests pin that compiling a problem builds no replay program, that a
solve builds one only for the actions it replays, that clones share the
program built after they were made, and that pickling (which drops the
program) round-trips to the same replay outcome under both backends.
"""

import pickle

import pytest

from repro import expr
from repro.compile import GroundAction, compile_problem, use_replay_backend
from repro.domains import media
from repro.expr import Num
from repro.experiments import scenario
from repro.experiments.networks import large_case
from repro.network import pair_network
from repro.planner import Planner, PlannerConfig


def _built(action: GroundAction) -> bool:
    return action._cell[0] is not None


def _spec_formulas(app) -> set:
    """Every distinct condition, effect right-hand side and cost formula in
    ``app`` (a crossing without a cost formula costs the constant 1)."""
    formulas: set = set()
    for comp in app.components.values():
        formulas.update(comp.conditions)
        formulas.update(a.expr for a in comp.effects)
        formulas.add(comp.cost_expr())
    for iface in app.interfaces.values():
        formulas.update(iface.cross_conditions)
        formulas.update(a.expr for a in iface.cross_effects)
        formulas.add(iface.cross_cost if iface.cross_cost is not None else Num(1.0))
    return formulas


@pytest.fixture(scope="module")
def fig10_c():
    case = large_case()
    app = media.build_app(case.server, case.client)
    before = expr.compile_cache_size()
    problem = compile_problem(app, case.network, scenario("C").leveling())
    return app, problem, expr.compile_cache_size() - before


@pytest.fixture
def tiny_problem():
    return compile_problem(
        media.build_app("n0", "n1"),
        pair_network(cpu=30.0, link_bw=70.0),
        media.proportional_leveling((90, 100)),
    )


def _action(problem, name):
    return next(a for a in problem.actions if a.name == name)


class TestCompileBuildsNothing:
    def test_no_action_holds_a_program(self, fig10_c):
        _app, problem, _growth = fig10_c
        assert len(problem.actions) == 5228
        assert not any(_built(a) for a in problem.actions)
        assert not any(_built(a) for a in problem.pruned_actions)

    def test_closure_cache_grows_per_formula_not_per_action(self, fig10_c):
        app, _problem, growth = fig10_c
        assert growth <= len(_spec_formulas(app))


class TestSolveBuildsOnlyReplayed:
    def test_only_replayed_actions_hold_a_program(self, monkeypatch):
        case = large_case()
        problem = compile_problem(
            media.build_app(case.server, case.client),
            case.network,
            scenario("C").leveling(),
        )
        replayed: set[int] = set()
        original = GroundAction.replay

        def spy(self, rmap, counters=None):
            replayed.add(id(self))
            return original(self, rmap, counters)

        monkeypatch.setattr(GroundAction, "replay", spy)
        plan = Planner(PlannerConfig(leveling=scenario("C").leveling())).solve(
            problem=problem
        )
        assert plan.actions
        built = {id(a) for a in problem.actions if _built(a)}
        assert built == replayed & {id(a) for a in problem.actions}
        assert 0 < len(built) < len(problem.actions) // 10


class TestCloneSharesProgram:
    def test_clone_before_first_replay_sees_later_build(self, tiny_problem):
        action = _action(tiny_problem, "place(Splitter,n0)[M.ibw=1]")
        dup = action.clone()
        assert not _built(action) and not _built(dup)
        action.replay(tiny_problem.initial_map())
        assert _built(dup)
        assert dup._cell[0] is action._cell[0]

    def test_fork_reuses_program_built_by_earlier_fork(self, tiny_problem):
        name = "place(Splitter,n0)[M.ibw=1]"
        first = tiny_problem.fork()
        _action(first, name).replay(first.initial_map())
        second = tiny_problem.fork()
        assert _built(_action(second, name))
        assert _action(second, name)._cell[0] is _action(first, name)._cell[0]


class TestPickleRoundTrip:
    @pytest.mark.parametrize("backend", ["compiled", "interpreted"])
    @pytest.mark.parametrize("replay_first", [False, True], ids=["unreplayed", "replayed"])
    def test_round_trip_replays_identically(self, tiny_problem, backend, replay_first):
        action = _action(tiny_problem, "place(Splitter,n0)[M.ibw=1]")
        with use_replay_backend(backend):
            if replay_first:
                action.replay(tiny_problem.initial_map())
            restored = pickle.loads(pickle.dumps(action))
            assert not _built(restored)
            assert restored == action
            expected, got = tiny_problem.initial_map(), tiny_problem.initial_map()
            action.replay(expected)
            restored.replay(got)
        assert got == expected
        assert got != tiny_problem.initial_map()
