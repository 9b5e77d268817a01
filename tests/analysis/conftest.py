"""Shared instances for the static-analysis test suite."""

import pytest

from repro.compile import compile_problem
from repro.domains import grid, media, webservice
from repro.experiments import network_case, scenario
from repro.model import AppSpec, ComponentSpec, InterfaceType, PropertySpec
from repro.network import Network


@pytest.fixture(scope="module")
def ws_problem():
    """The webservice fig-5 instance, compiled (a chain: no symmetry)."""
    return compile_problem(
        webservice.build_app("server", "client"),
        webservice.build_network(),
        webservice.ws_leveling(),
    )


@pytest.fixture(scope="module")
def fig10c_problem():
    """The paper's Fig-10/C cell: the 93-node network at scenario C."""
    case = network_case("Large")
    return compile_problem(
        media.build_app(case.server, case.client),
        case.network,
        scenario("C").leveling(),
    )


@pytest.fixture(scope="module")
def grid_problem():
    """The grid domain, whose additive latency widens 7 envelopes."""
    return compile_problem(
        grid.build_app("site0_head", "site3_head"),
        grid.build_network(),
        grid.grid_leveling(),
    )


def build_diamond_network() -> Network:
    """A diamond: src - {mid_a | mid_b} - dst, with interchangeable middles."""
    net = Network("diamond")
    for node in ("src", "mid_a", "mid_b", "dst"):
        net.add_node(node, {"cpu": 30.0})
    for mid in ("mid_a", "mid_b"):
        net.add_link("src", mid, {"lbw": 150.0}, labels={"LAN"})
        net.add_link(mid, "dst", {"lbw": 150.0}, labels={"LAN"})
    return net


@pytest.fixture(scope="module")
def diamond_problem():
    """Media delivery across the diamond — mid_a ~ mid_b are verified twins."""
    return compile_problem(
        media.build_app("src", "dst"),
        build_diamond_network(),
        media.proportional_leveling((90.0, 100.0)),
    )


def build_dead_app() -> AppSpec:
    """A domain with a provably dead consumer.

    The producer emits exactly 100 units of ``S``; ``SmallConsumer``
    demands ``S.ibw <= 50``.  Best-value reachability keeps the consumer
    (its optimistic closure ``[0, 100]`` satisfies ``<= 50``), but the
    envelope analysis tracks the exact produced point and refutes the
    condition — the residual dead set is non-empty by construction.

    The stream must be *non-degradable* with exact-transfer crossing
    semantics: with the default degradable bandwidth stream, repeated
    crossings drain link bandwidth and genuinely can deliver degraded
    (≤ 50) values, which would make the consumer live.
    """
    interfaces = [
        InterfaceType.parse(
            "S",
            properties=[PropertySpec("ibw", degradable=False)],
            cross_conditions=["Link.lbw >= S.ibw"],
            cross_effects=["S.ibw' := S.ibw", "Link.lbw' -= S.ibw"],
            cross_cost="1 + S.ibw/10",
        )
    ]
    components = [
        ComponentSpec.parse(
            "Producer", implements=["S"], effects=["S.ibw := 100"]
        ),
        ComponentSpec.parse(
            "SmallConsumer",
            requires=["S"],
            conditions=["S.ibw <= 50"],
            cost="1",
        ),
        ComponentSpec.parse(
            "BigConsumer",
            requires=["S"],
            conditions=["S.ibw >= 90"],
            cost="1",
        ),
    ]
    return AppSpec.build(
        name="dead-demo",
        interfaces=interfaces,
        components=components,
        initial=[("Producer", "n0")],
        goals=[("BigConsumer", "n1")],
    )


def build_dead_network() -> Network:
    net = Network("pair")
    net.add_node("n0", {"cpu": 30.0})
    net.add_node("n1", {"cpu": 30.0})
    net.add_link("n0", "n1", {"lbw": 150.0}, labels={"LAN"})
    return net


@pytest.fixture(scope="module")
def dead_problem():
    return compile_problem(build_dead_app(), build_dead_network())
