"""Dead-action elimination on the synthetic dead-demo domain.

The bundled domains carry no residual dead actions (compile-time
best-value reachability already removes everything refutable by optimistic
closures), so these tests use the ``dead_problem`` fixture: a
non-degradable exact-transfer stream whose producer emits exactly 100,
making the ``S.ibw <= 50`` consumer provably unfirable while its
optimistic closure ``[0, 100]`` keeps it past compile-time pruning.
"""

import pytest

from repro.analysis import (
    Refutation,
    abstract_step,
    analyze_problem,
    check_certificate,
    compute_envelopes,
    find_dead_actions,
)
from repro.compile import compile_problem
from repro.model import AppSpec, ComponentSpec, InterfaceType, PropertySpec
from repro.network import Network
from repro.planner import ExecutionError, Planner, PlannerConfig, execute_plan

from .conftest import build_dead_app, build_dead_network


def test_dead_set_nonempty_and_deterministic(dead_problem):
    ana = analyze_problem(dead_problem)
    names = [d.name for d in ana.dead]
    assert names == ["place(SmallConsumer,n0)", "place(SmallConsumer,n1)"]
    assert all(d.certificate.kind == "condition" for d in ana.dead)
    # Indices ascend (refutation runs in action-index order).
    assert [d.index for d in ana.dead] == sorted(d.index for d in ana.dead)
    # A second run reproduces the same dead list exactly.
    again = find_dead_actions(dead_problem, compute_envelopes(dead_problem).envelopes)
    assert [(d.index, d.name) for d in again] == [(d.index, d.name) for d in ana.dead]


def test_certificates_recheck(dead_problem):
    envelopes = compute_envelopes(dead_problem).envelopes
    for dead in find_dead_actions(dead_problem, envelopes):
        assert check_certificate(dead_problem, envelopes, dead.certificate)


def test_dead_actions_cannot_execute(dead_problem):
    """The ground truth behind the certificates: the executor refuses them.

    The producer's output is the only feasible prefix; appending a dead
    consumer placement must fail exact execution from any such state.
    """
    ana = analyze_problem(dead_problem)
    by_name = {a.name: a for a in dead_problem.actions}
    cross = by_name["cross(S,n0->n1)"]
    for dead in ana.dead:
        action = dead_problem.actions[dead.index]
        for prefix in ([], [cross]):
            with pytest.raises(ExecutionError):
                execute_plan(dead_problem, prefix + [action])


def test_live_actions_not_reported(dead_problem):
    ana = analyze_problem(dead_problem)
    dead_names = {d.name for d in ana.dead}
    assert "place(BigConsumer,n1)" not in dead_names
    assert "cross(S,n0->n1)" not in dead_names


@pytest.mark.parametrize("mode", [None, "dead", "full"])
def test_planner_parity_with_dead_pruning(mode):
    plan = Planner(PlannerConfig(static_prune=mode)).solve(
        build_dead_app(), build_dead_network()
    )
    assert plan.cost_lb == pytest.approx(2.0)
    assert [a.name for a in plan.actions] == [
        "cross(S,n0->n1)",
        "place(BigConsumer,n1)",
    ]
    if mode in ("dead", "full"):
        assert plan.stats.static_pruned == 2
    else:
        assert plan.stats.static_pruned == 0


@pytest.fixture(scope="module")
def split_problem():
    """One grounding template whose bindings disagree.

    ``SmallConsumer`` (``S.ibw <= 50``) is ground at three nodes of one
    capacity class, so its three placements share a template: the exact
    100 that reaches n0 and n1 refutes two of them, while n2 holds only
    the 40 its own pre-placed producer emits (its 30-unit link cannot
    carry the 100), which keeps the third live.
    """
    stream = InterfaceType.parse(
        "S",
        properties=[PropertySpec("ibw", degradable=False)],
        cross_conditions=["Link.lbw >= S.ibw"],
        cross_effects=["S.ibw' := S.ibw", "Link.lbw' -= S.ibw"],
        cross_cost="1 + S.ibw/10",
    )
    components = [
        ComponentSpec.parse("Producer", implements=["S"], effects=["S.ibw := 100"]),
        ComponentSpec.parse("SideProducer", implements=["S"], effects=["S.ibw := 40"]),
        ComponentSpec.parse(
            "SmallConsumer", requires=["S"], conditions=["S.ibw <= 50"], cost="1"
        ),
        ComponentSpec.parse(
            "BigConsumer", requires=["S"], conditions=["S.ibw >= 90"], cost="1"
        ),
    ]
    app = AppSpec.build(
        name="split-demo",
        interfaces=[stream],
        components=components,
        initial=[("Producer", "n0"), ("SideProducer", "n2")],
        goals=[("BigConsumer", "n1")],
    )
    net = Network("line")
    for node in ("n0", "n1", "n2"):
        net.add_node(node, {"cpu": 30.0})
    net.add_link("n0", "n1", {"lbw": 150.0}, labels={"LAN"})
    net.add_link("n1", "n2", {"lbw": 30.0}, labels={"LAN"})
    return compile_problem(app, net)


def test_split_template_is_judged_per_binding(split_problem):
    consumers = [a for a in split_problem.actions if a.subject == "SmallConsumer"]
    assert len({id(a.committed) for a in consumers}) == 1
    dead = {d.name for d in analyze_problem(split_problem).dead}
    assert [a.name in dead for a in consumers] == [True, True, False]


@pytest.mark.parametrize(
    "name", ["fig10c_problem", "grid_problem", "dead_problem", "split_problem"]
)
def test_dead_iff_reference_step_refutes(request, name):
    """The dead pass judges each (template, read envelopes) once; its
    verdict must be the reference transfer function's for every action."""
    problem = request.getfixturevalue(name)
    final = compute_envelopes(problem).envelopes
    dead = [d.index for d in find_dead_actions(problem, final)]
    refuted = [
        action.index
        for action in problem.actions
        if isinstance(abstract_step(action, final), Refutation)
    ]
    assert dead == refuted
