"""Ground actions build their ground variables on first access.

A ground action is its grounding template bound to a node or a directed
edge.  Its ``var_map``, ``seeds`` and ``effect_targets`` are built from the
template's ``(prefix, site)`` layouts the first time something reads them
and kept in the cell the action shares with its clones.  These tests pin
that compiling, reachability, the diagnosis and the static analysis
build none of them,
that a solve builds them only for the actions it replays or returns, that
a fork and its base see each other's builds, and that pickling (which
drops the cell) rebuilds equal views.
"""

import pickle

import pytest

from repro.compile import GroundAction, compile_problem, diagnose
from repro.domains import media
from repro.experiments import scenario
from repro.experiments.networks import large_case
from repro.planner import Planner, PlannerConfig

_VIEWS = ("var_map", "seeds", "effect_targets")


def _views_built(action: GroundAction) -> bool:
    return any(view is not None for view in action._cell[1:])


def _fig10_c(analyze: bool = False):
    case = large_case()
    return compile_problem(
        media.build_app(case.server, case.client),
        case.network,
        scenario("C").leveling(),
        analyze=analyze,
    )


@pytest.fixture(scope="module")
def fig10_c():
    return _fig10_c()


def test_compile_builds_no_view():
    problem = _fig10_c()
    assert len(problem.actions) == 5228
    assert not any(_views_built(a) for a in problem.actions)
    assert not any(_views_built(a) for a in problem.pruned_actions)


def test_diagnose_builds_no_view():
    case = large_case()
    problem = compile_problem(
        media.build_app(case.server, case.client), case.network, scenario("A").leveling()
    )
    assert "placements pruned" in str(diagnose(problem))
    assert not any(_views_built(a) for a in problem.actions + problem.pruned_actions)


def test_static_analysis_builds_no_view():
    problem = _fig10_c(analyze=True)
    assert problem.analysis is not None
    assert not any(_views_built(a) for a in problem.actions)


@pytest.mark.parametrize("static_prune", ["off", "full"])
def test_solve_builds_views_only_for_replayed_or_returned(monkeypatch, static_prune):
    problem = _fig10_c()
    replayed: set[int] = set()
    original = GroundAction.replay

    def spy(self, rmap, counters=None):
        replayed.add(id(self))
        return original(self, rmap, counters)

    monkeypatch.setattr(GroundAction, "replay", spy)
    config = PlannerConfig(leveling=scenario("C").leveling(), static_prune=static_prune)
    plan = Planner(config).solve(problem=problem)
    assert plan.actions
    returned = {a.name for a in plan.actions}
    built = [a for a in problem.actions if _views_built(a)]
    assert all(id(a) in replayed or a.name in returned for a in built)
    assert 0 < len(built) < len(problem.actions) // 10


def test_fork_and_base_share_views_whichever_builds_first(fig10_c):
    dup = fig10_c.fork()
    base_first, fork_first = fig10_c.actions[-1], dup.actions[-2]
    assert not _views_built(base_first) and not _views_built(fork_first)
    for view in _VIEWS:
        assert getattr(base_first, view) is getattr(dup.actions[-1], view)
        assert getattr(fork_first, view) is getattr(fig10_c.actions[-2], view)


def test_pickled_action_rebuilds_equal_views(fig10_c):
    action = next(a for a in fig10_c.actions if a.kind == "place")
    expected = {view: getattr(action, view) for view in _VIEWS}
    restored = pickle.loads(pickle.dumps(action))
    assert not _views_built(restored)
    assert restored == action
    for view, value in expected.items():
        assert getattr(restored, view) == value
