"""Forks and clones share each action's dicts: one new object per action.

Nothing edits a ground action's ``var_map`` or ``committed`` in place
(post-optimization assigns a new ``committed``), so ``clone()`` shares
both with the original and a :meth:`CompiledProblem.fork` costs one
object per action plus the copied achiever lists.
"""

import gc

import pytest

from repro.compile import compile_problem
from repro.domains.media import build_app
from repro.experiments import large_case, scenario
from repro.planner import Planner, PlannerConfig, post_optimize


@pytest.fixture(scope="module")
def fig10c():
    case = large_case()
    return compile_problem(
        build_app(case.server, case.client), case.network, scenario("C").leveling()
    )


def test_fork_shares_var_map_and_committed(fig10c):
    dup = fig10c.fork()
    assert len(dup.actions) == len(fig10c.actions)
    for base, copy in zip(fig10c.actions, dup.actions):
        assert copy is not base
        assert copy.var_map is base.var_map
        assert copy.committed is base.committed
        assert copy._cell is base._cell


def test_fork_allocates_one_object_per_action(fig10c):
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        dup = fig10c.fork()
        added = len(gc.get_objects()) - before
    finally:
        gc.enable()
    assert len(dup.actions) == len(fig10c.actions)
    assert added <= len(fig10c.actions) + len(fig10c.achievers) + 64


def test_post_optimize_copies_leave_base_committed_unchanged(fig10c):
    snapshot = [(a.committed, dict(a.committed)) for a in fig10c.actions]
    problem = fig10c.fork()
    plan = Planner(PlannerConfig(leveling=problem.leveling)).solve(problem=problem)
    result = post_optimize(problem, list(plan.actions))
    assert result.throttle < 1.0  # some copy really got new committed intervals
    for base, (committed, contents) in zip(fig10c.actions, snapshot):
        assert base.committed is committed
        assert base.committed == contents
