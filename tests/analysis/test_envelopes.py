"""Envelope fixpoint: smoke checks and property-based soundness.

The soundness property under test is the module contract of
:mod:`repro.analysis.envelopes`: the envelope of every ground variable
contains its value in **every state reachable by exact execution** from
the initial state.  The hypothesis test grows random executable action
sequences (greedily skipping drawn actions that fail to execute) and
asserts containment at every prefix, within the executor's ``1e-6`` fuzz.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    Refutation,
    abstract_step,
    analyze_problem,
    compute_envelopes,
    initial_envelopes,
)
from repro.planner import ExecutionError, execute_plan

_EPS = 1e-6


def _assert_contained(envelopes, values, context):
    for gvar, value in values.items():
        iv = envelopes.get(gvar)
        assert iv is not None, f"{context}: {gvar} has no envelope"
        assert iv.lo - _EPS <= value <= iv.hi + _EPS, (
            f"{context}: {gvar}={value} escapes envelope {iv}"
        )


def test_initial_state_is_contained(ws_problem):
    result = compute_envelopes(ws_problem)
    init = initial_envelopes(ws_problem)
    for gvar, iv0 in init.items():
        assert gvar in result.envelopes
        assert result.envelopes[gvar].contains_interval(iv0)


def test_fixpoint_terminates_and_bounds(ws_problem):
    result = compute_envelopes(ws_problem)
    assert result.iterations >= 1
    assert result.bounded > 0
    # Every widened variable must actually have lost a bound.
    for gvar in result.widened:
        assert not result.envelopes[gvar].is_bounded()


def test_empty_plan_final_values_contained(ws_problem):
    result = compute_envelopes(ws_problem)
    report = execute_plan(ws_problem, [])
    _assert_contained(result.envelopes, report.final_values, "empty plan")


def _grow_sequence(problem, picks):
    """Greedily grow an executable sequence from drawn action indices.

    Each drawn index proposes appending that ground action; proposals
    whose extended sequence fails exact execution are dropped.  The
    result is an arbitrary executable sequence — exactly the state space
    the envelopes claim to cover.
    """
    actions = []
    for pick in picks:
        candidate = actions + [problem.actions[pick % len(problem.actions)]]
        try:
            execute_plan(problem, candidate)
        except ExecutionError:
            continue
        actions = candidate
    return actions


@settings(max_examples=40, deadline=None)
@given(picks=st.lists(st.integers(min_value=0, max_value=10_000), max_size=8))
def test_reachable_values_stay_in_envelopes(ws_problem, picks):
    envelopes = compute_envelopes(ws_problem).envelopes
    actions = _grow_sequence(ws_problem, picks)
    # Check every prefix, not just the final state: envelopes are an
    # invariant of all reachable states, not a postcondition.
    for cut in range(len(actions) + 1):
        report = execute_plan(ws_problem, actions[:cut])
        _assert_contained(
            envelopes,
            report.final_values,
            f"prefix {[a.name for a in actions[:cut]]}",
        )


@settings(max_examples=25, deadline=None)
@given(picks=st.lists(st.integers(min_value=0, max_value=10_000), max_size=6))
def test_dead_domain_envelopes_sound(dead_problem, picks):
    envelopes = compute_envelopes(dead_problem).envelopes
    actions = _grow_sequence(dead_problem, picks)
    report = execute_plan(dead_problem, actions)
    _assert_contained(envelopes, report.final_values, "dead-domain sequence")


@pytest.mark.parametrize("name", ["fig10c_problem", "grid_problem", "dead_problem"])
def test_fixpoint_is_closed_under_every_live_step(request, name):
    """At the fixpoint, stepping any unrefuted action through the reference
    transfer function writes nothing outside the final envelopes.

    The fixpoint steps each grounding template once per distinct input and
    maps the writes onto each binding's targets, so a write mapped onto the
    wrong variable leaves the true target's value outside its envelope.
    """
    problem = request.getfixturevalue(name)
    final = compute_envelopes(problem).envelopes
    live = 0
    for action in problem.actions:
        step = abstract_step(action, final)
        if isinstance(step, Refutation):
            continue
        live += 1
        for gvar, post in step.writes:
            assert gvar in final, f"{action.name} writes {gvar}, which has no envelope"
            assert final[gvar].contains_interval(post), (
                f"{action.name} writes {post} to {gvar} outside {final[gvar]}"
            )
    assert live


def test_fig10c_iteration_count_pinned(fig10c_problem):
    """Memoized steps leave the worklist order, joins and widening as they
    were: the paper's Fig-10/C pair takes exactly 11,905 worklist steps."""
    assert compute_envelopes(fig10c_problem).iterations == 11_905
    (summary,) = analyze_problem(fig10c_problem).to_report().by_code("ENV001")
    assert "11905 iteration(s)" in summary.message
