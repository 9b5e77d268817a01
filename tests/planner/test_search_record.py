"""The RG's one search record: tally, trace, counters and stats agree."""

import pytest

from repro.domains import media
from repro.experiments import network_case, scenario, small_case
from repro.obs import Telemetry
from repro.planner import Planner, PlannerConfig, SearchBudgetExceeded
from repro.planner import planner as planner_module
from repro.planner.rg import PRUNE_REASONS


def _capture_rg(monkeypatch):
    """Keep every RGResult that Planner.solve receives."""
    results = []
    search = planner_module.regression_search

    def spy(*args, **kwargs):
        results.append(search(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(planner_module, "regression_search", spy)
    return results


def _counters(tele):
    return {m["name"]: m["value"] for m in tele.metrics.snapshot() if m["kind"] == "counter"}


def _small_c(**config):
    case = small_case()
    app = media.build_app(case.server, case.client)
    return Planner(PlannerConfig(leveling=scenario("C").leveling(), **config)).solve(
        app, case.network
    )


def test_views_agree_reason_by_reason_on_fig10_symmetry_route(monkeypatch):
    results = _capture_rg(monkeypatch)
    tele = Telemetry()
    plan = Planner(
        PlannerConfig(
            leveling=scenario("B").leveling(), static_prune="full", telemetry=tele, trace=True
        )
    ).solve(media.build_app("t0_0_s0_0", "t0_0_s1_7"), network_case("Large").network)
    (result,) = results
    record = result.record
    assert record.pruned["symmetry"] > 0
    counters = _counters(tele)
    for reason in PRUNE_REASONS:
        assert record.pruned[reason] == plan.trace.prune_reasons.get(reason, 0), reason
        assert record.pruned[reason] == counters[f"rg.prune.{reason}"], reason
    assert plan.stats.rg_sym_pruned == record.pruned["symmetry"]
    assert plan.trace.counters["expand"] == record.expanded == plan.stats.rg_expanded
    # Every created child but the root is queued; the optimum stops on a pop.
    assert plan.trace.counters["create"] == record.created - 1 == plan.stats.rg_nodes - 1


def test_failed_run_publishes_partial_counts():
    tele = Telemetry()
    with pytest.raises(SearchBudgetExceeded):
        _small_c(rg_node_budget=10, telemetry=tele)
    counters = _counters(tele)
    trace = tele.trace
    for reason in PRUNE_REASONS:
        assert counters[f"rg.prune.{reason}"] == trace.prune_reasons.get(reason, 0)
    assert sum(counters[f"rg.prune.{r}"] for r in PRUNE_REASONS) > 0


def test_interrupted_anytime_keeps_its_frontier_bound():
    optimum = _small_c()
    tele = Telemetry()
    incumbent = _small_c(rg_node_budget=30, anytime=True, telemetry=tele)
    assert incumbent.incumbent and incumbent.stop_reason == "node_budget"
    bound = incumbent.stats.rg_lower_bound
    assert bound <= optimum.cost_lb <= incumbent.cost_lb
    assert bound < incumbent.cost_lb  # the gap is reported, not folded away
    (rg_span,) = [s for s in tele.spans.spans if s.name == "rg"]
    assert rg_span.attrs["lower_bound"] == bound
    assert tele.metrics.get("planner.rg_lower_bound").value == bound


def test_optimal_lower_bound_is_cost_lb():
    plan = _small_c()
    assert not plan.incumbent
    assert plan.stats.rg_lower_bound == plan.cost_lb
