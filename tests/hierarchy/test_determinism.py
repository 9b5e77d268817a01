"""Worker-count invariance: the stitched plan is byte-identical whether
domain subproblems are solved in-process or over a spawn pool.

Spawning real worker processes makes this slow, like the rest of the
parallel suite.  The in-process half doubles as a serial determinism
check (two runs, same bytes).
"""

import pytest

from repro.domains.media import build_app
from repro.experiments import large_case, scaling_network_domains, scenario
from repro.hierarchy import HierarchyConfig, solve_hierarchical

pytestmark = pytest.mark.slow  # spawns real worker processes


def _solve(workers: int, network=None, server=None, client=None):
    if network is None:
        case = large_case()
        network, server, client = case.network, case.server, case.client
    outcome = solve_hierarchical(
        build_app(server, client),
        network,
        leveling=scenario("C").leveling(),
        config=HierarchyConfig(workers=workers),
    )
    assert outcome.solved and outcome.mode == "hierarchical"
    return outcome.plan


class TestWorkerCountInvariance:
    def test_serial_reruns_identical(self):
        a, b = _solve(1), _solve(1)
        assert a.action_names() == b.action_names()
        assert a.cost_lb == b.cost_lb

    def test_one_vs_four_workers_identical(self):
        serial, parallel = _solve(1), _solve(4)
        assert serial.action_names() == parallel.action_names()
        assert serial.cost_lb == parallel.cost_lb
        assert serial.exact_cost == parallel.exact_cost

    def test_scaling_network_one_vs_two_workers_identical(self):
        instance = scaling_network_domains(4)
        serial, parallel = _solve(1, *instance), _solve(2, *instance)
        assert serial.action_names() == parallel.action_names()
        assert serial.cost_lb == parallel.cost_lb
