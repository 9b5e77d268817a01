"""The solve ladder: planner integration, telemetry, fallback rungs."""

import pytest

from repro.domains.media import build_app
from repro.experiments import large_case, scenario
from repro.hierarchy import HierarchyConfig, solve_hierarchical
from repro.network import chain_network
from repro.obs import Telemetry
from repro.planner import Planner, PlannerConfig


def _large():
    case = large_case()
    return case.network, build_app(case.server, case.client), scenario("C").leveling()


class TestPlannerIntegration:
    def test_hierarchy_config_routes_solve(self):
        net, app, leveling = _large()
        config = PlannerConfig(leveling=leveling, hierarchy=HierarchyConfig())
        plan = Planner(config).solve(app, net)
        flat = Planner(PlannerConfig(leveling=leveling)).solve(app, net)
        assert plan.cost_lb == pytest.approx(flat.cost_lb, abs=1e-6)

    def test_requires_app_and_network(self):
        config = PlannerConfig(hierarchy=HierarchyConfig())
        with pytest.raises(ValueError, match="app"):
            Planner(config).solve()

    def test_lazy_reexport(self):
        from repro.planner import HierarchyConfig as HC

        assert HC is HierarchyConfig


class TestTelemetry:
    def test_spans_and_counters(self):
        net, app, leveling = _large()
        tele = Telemetry()
        outcome = solve_hierarchical(app, net, leveling=leveling, telemetry=tele)
        assert outcome.mode == "hierarchical"
        names = [span.name for span in tele.spans.spans]
        for expected in ("hierarchy.partition", "hierarchy.abstract", "hierarchy.stitch"):
            assert expected in names
        assert tele.metrics.counter("hierarchy.domains").value >= 2
        assert tele.metrics.counter("hierarchy.stitch.retries").value == 0

    def test_fallback_counts_retries(self):
        net = chain_network([(150.0, "LAN")] * 3, cpu=1000.0)
        app = build_app("n0", "n3")
        tele = Telemetry()
        outcome = solve_hierarchical(
            app, net, leveling=scenario("C").leveling(), telemetry=tele
        )
        assert outcome.solved and outcome.mode == "flat"
        assert tele.metrics.counter("hierarchy.stitch.retries").value >= 1


class TestFallbackLadder:
    def test_non_transit_stub_network_falls_back_to_flat(self):
        net = chain_network([(150.0, "LAN")] * 3, cpu=1000.0)
        app = build_app("n0", "n3")
        outcome = solve_hierarchical(app, net, leveling=scenario("C").leveling())
        assert outcome.solved
        assert outcome.mode == "flat"
        assert outcome.stitch_retries >= 1

    def test_fallback_disabled_raises(self):
        net = chain_network([(150.0, "LAN")] * 3, cpu=1000.0)
        app = build_app("n0", "n3")
        outcome = solve_hierarchical(app, net, leveling=scenario("C").leveling())
        first = outcome.attempts[0]
        assert first.rung == "hierarchical" and not first.succeeded
        assert first.error_type == "PartitionError"

    def test_outcome_describe_mentions_mode(self):
        net, app, leveling = _large()
        outcome = solve_hierarchical(app, net, leveling=leveling)
        assert "hierarchical plan" in outcome.describe()
