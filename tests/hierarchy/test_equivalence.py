"""Hierarchical == flat on the paper's 93-node Large network.

The contract under test (ISSUE: equivalence suite): for every endpoint
pair of the Fig. 10 grid, hierarchical planning reaches the same outcome
class as flat planning, and when both solve, the exact same cost — the
decomposition is a performance optimization, not an approximation.

Scenario C covers a 2×2 endpoint subset at normal speed; the full
3-server × 4-client grid across scenarios B, C, and D runs under the
``slow`` marker (it is the grid verified point-by-point during
development).
"""

import pytest

from repro.domains.media import build_app
from repro.experiments import large_case, scaling_network_domains, scenario
from repro.hierarchy import solve_hierarchical
from repro.planner import Planner, PlannerConfig, PlanningError

SERVERS = ["t0_0_s0_0", "t0_1_s1_3", "t0_2_s2_0"]
CLIENTS = ["t0_2_s2_5", "t0_0_s0_9", "t0_1_s0_2", "t0_0_s0_3"]


def _flat(app, net, leveling):
    try:
        return Planner(PlannerConfig(leveling=leveling)).solve(app, net)
    except PlanningError:
        return None


def _hier(app, net, leveling):
    try:
        return solve_hierarchical(app, net, leveling=leveling)
    except PlanningError:
        return None


def _assert_equivalent(server, client, scenario_key, net=None):
    if net is None:
        net = large_case().network
    app = build_app(server, client)
    leveling = scenario(scenario_key).leveling()
    flat = _flat(app, net, leveling)
    outcome = _hier(app, net, leveling)
    if flat is None:
        assert outcome is None or not outcome.solved
        return outcome
    assert outcome is not None and outcome.solved
    assert outcome.plan.cost_lb == pytest.approx(flat.cost_lb, abs=1e-6)
    outcome.plan.execute()  # exact validation raises on infeasibility
    return outcome


class TestEquivalenceQuick:
    @pytest.mark.parametrize("server", SERVERS[:2])
    @pytest.mark.parametrize("client", CLIENTS[:2])
    def test_scenario_c_subset(self, server, client):
        outcome = _assert_equivalent(server, client, "C")
        # Cross-domain endpoints must exercise the hierarchical path
        # itself, not a silent fallback rung.
        assert outcome.mode == "hierarchical"

    def test_scaling_network_cross_domain(self):
        """The 123-node member of the domain-count scaling family."""
        net, server, client = scaling_network_domains(4)
        outcome = _assert_equivalent(server, client, "C", net)
        assert outcome.mode == "hierarchical"

    def test_same_domain_endpoints(self):
        """Server and client in one stub: no backbone crossing needed."""
        _assert_equivalent("t0_0_s0_0", "t0_0_s0_3", "C")


@pytest.mark.slow
class TestEquivalenceFullGrid:
    @pytest.mark.parametrize("scenario_key", ["B", "C", "D"])
    @pytest.mark.parametrize("server", SERVERS)
    @pytest.mark.parametrize("client", CLIENTS)
    def test_grid_point(self, scenario_key, server, client):
        _assert_equivalent(server, client, scenario_key)
