"""The RG replays a node's tail when it is popped, not when it is made.

With a heuristic that has no memory (``PLRG_MAX``, ``BLIND``) deferring
the replay changes no decision: the same nodes are expanded in the same
order and the same plan comes back.  The constants below were recorded
with replay on creation; only the replay work may fall.
"""

import pytest

from repro.domains import media
from repro.experiments import scaling_network, scenario, tiny_case
from repro.planner import Heuristic, Planner, PlannerConfig

TINY_B = (
    "place(Splitter,n0)[M.ibw=0]",
    "cross(I,n0->n1)[I.ibw=0]",
    "place(Zip,n0)[T.ibw=0]",
    "cross(Z,n0->n1)[Z.ibw=0]",
    "place(Unzip,n1)[Z.ibw=0]",
    "place(Merger,n1)[I.ibw=0,T.ibw=0]",
    "place(Client,n1)[M.ibw=0]",
)

# (scenario, heuristic) -> (plan, cost_lb, rg_expanded), on the Tiny network.
TINY = {
    ("B", Heuristic.PLRG_MAX): (TINY_B, 7.0, 27),
    ("E", Heuristic.PLRG_MAX): (
        (
            "place(Splitter,n0)[M.ibw=3]",
            "cross(I,n0->n1)[I.ibw=3,Link.lbw=0]",
            "place(Zip,n0)[T.ibw=3]",
            "cross(Z,n0->n1)[Link.lbw=1,Z.ibw=3]",
            "place(Unzip,n1)[Z.ibw=3]",
            "place(Merger,n1)[I.ibw=3,T.ibw=3]",
            "place(Client,n1)[M.ibw=3]",
        ),
        40.3,
        20,
    ),
    ("B", Heuristic.BLIND): (TINY_B, 7.0, 57),
    ("E", Heuristic.BLIND): (
        (
            "place(Splitter,n0)[M.ibw=3]",
            "place(Zip,n0)[T.ibw=3]",
            "cross(Z,n0->n1)[Link.lbw=1,Z.ibw=3]",
            "place(Unzip,n1)[Z.ibw=3]",
            "cross(I,n0->n1)[I.ibw=3,Link.lbw=0]",
            "place(Merger,n1)[I.ibw=3,T.ibw=3]",
            "place(Client,n1)[M.ibw=3]",
        ),
        40.3,
        148,
    ),
}

# Pairs 0-2 of perfbench's flat-search pool (scaling_network(3), scenario
# B) under PLRG_MAX: (server, client) -> (plan, cost_lb, rg_expanded).
POOL = {
    ("t0_1_s2_1", "t0_0_s0_0"): (
        (
            "cross(M,t0_1_s2_1->t0_1_s2_2)[M.ibw=0]",
            "place(Splitter,t0_1_s2_2)[M.ibw=0]",
            "cross(I,t0_1_s2_2->t0_1)[I.ibw=0]",
            "place(Zip,t0_1_s2_2)[T.ibw=0]",
            "cross(I,t0_1->t0_0)[I.ibw=0]",
            "cross(Z,t0_1_s2_2->t0_1)[Z.ibw=0]",
            "cross(Z,t0_1->t0_0)[Z.ibw=0]",
            "cross(I,t0_0->t0_0_s0_0)[I.ibw=0]",
            "cross(Z,t0_0->t0_0_s0_0)[Z.ibw=0]",
            "place(Unzip,t0_0_s0_0)[Z.ibw=0]",
            "place(Merger,t0_0_s0_0)[I.ibw=0,T.ibw=0]",
            "place(Client,t0_0_s0_0)[M.ibw=0]",
        ),
        12.0,
        667,
    ),
    ("t0_0_s2_0", "t0_1_s0_2"): (
        (
            "place(Splitter,t0_0_s2_0)[M.ibw=0]",
            "place(Zip,t0_0_s2_0)[T.ibw=0]",
            "cross(I,t0_0_s2_0->t0_0)[I.ibw=0]",
            "cross(I,t0_0->t0_1)[I.ibw=0]",
            "cross(Z,t0_0_s2_0->t0_0)[Z.ibw=0]",
            "cross(Z,t0_0->t0_1)[Z.ibw=0]",
            "cross(I,t0_1->t0_1_s0_1)[I.ibw=0]",
            "cross(Z,t0_1->t0_1_s0_1)[Z.ibw=0]",
            "place(Unzip,t0_1_s0_1)[Z.ibw=0]",
            "place(Merger,t0_1_s0_1)[I.ibw=0,T.ibw=0]",
            "cross(M,t0_1_s0_1->t0_1_s0_2)[M.ibw=0]",
            "place(Client,t0_1_s0_2)[M.ibw=0]",
        ),
        12.0,
        759,
    ),
    ("t0_0_s1_0", "t0_2_s1_0"): (
        (
            "place(Splitter,t0_0_s1_0)[M.ibw=0]",
            "cross(I,t0_0_s1_0->t0_0)[I.ibw=0]",
            "place(Zip,t0_0_s1_0)[T.ibw=0]",
            "cross(I,t0_0->t0_2)[I.ibw=0]",
            "cross(Z,t0_0_s1_0->t0_0)[Z.ibw=0]",
            "cross(Z,t0_0->t0_2)[Z.ibw=0]",
            "cross(I,t0_2->t0_2_s1_2)[I.ibw=0]",
            "cross(Z,t0_2->t0_2_s1_2)[Z.ibw=0]",
            "place(Unzip,t0_2_s1_2)[Z.ibw=0]",
            "place(Merger,t0_2_s1_2)[I.ibw=0,T.ibw=0]",
            "cross(M,t0_2_s1_2->t0_2_s1_0)[M.ibw=0]",
            "place(Client,t0_2_s1_0)[M.ibw=0]",
        ),
        12.0,
        759,
    ),
}

# Recorded with replay on creation, on the first pool pair under PLRG_MAX.
POOL0_REPLAYS = 5065
POOL0_NODES = 3416


@pytest.fixture(scope="module")
def flat_search_net():
    return scaling_network(3)[0]


def _tiny(key, heuristic, **config):
    case = tiny_case()
    app = media.build_app(case.server, case.client)
    planner = Planner(
        PlannerConfig(leveling=scenario(key).leveling(), heuristic=heuristic, **config)
    )
    return planner.solve(app, case.network)


def _pool(net, server, client, **config):
    planner = Planner(
        PlannerConfig(leveling=scenario("B").leveling(), heuristic=Heuristic.PLRG_MAX, **config)
    )
    return planner.solve(media.build_app(server, client), net)


def _signature(plan):
    return tuple(a.name for a in plan.actions), plan.cost_lb, plan.stats.rg_expanded


@pytest.mark.parametrize(("key", "heuristic"), sorted(TINY, key=str), ids=str)
def test_tiny_search_unchanged(key, heuristic):
    assert _signature(_tiny(key, heuristic)) == TINY[key, heuristic]


@pytest.mark.parametrize("pair", list(POOL), ids="->".join)
def test_flat_search_pool_unchanged(flat_search_net, pair):
    assert _signature(_pool(flat_search_net, *pair)) == POOL[pair]


def test_replays_fall_below_half(flat_search_net):
    plan = _pool(flat_search_net, *next(iter(POOL)))
    assert plan.stats.rg_replays < POOL0_REPLAYS / 2
    # Created nodes are replayed-clean nodes, so they fall with the replays.
    assert plan.stats.rg_nodes <= POOL0_NODES


def test_budget_at_recorded_node_count_still_solves(flat_search_net):
    """The budget counts created (replayed) nodes, never more than a
    creation-time replay made, so the recorded count is enough."""
    pair = next(iter(POOL))
    plan = _pool(flat_search_net, *pair, rg_node_budget=POOL0_NODES)
    assert _signature(plan) == POOL[pair]
    tiny = _tiny("E", Heuristic.PLRG_MAX, rg_node_budget=67)
    assert _signature(tiny) == TINY["E", Heuristic.PLRG_MAX]
