"""Planner integration: prune modes, telemetry, and the analyzing cache."""

import pytest

from repro.domains import media
from repro.experiments import network_case, scenario
from repro.obs import Telemetry
from repro.parallel import CompileCache
from repro.planner import Planner, PlannerConfig

from .conftest import build_dead_app, build_dead_network, build_diamond_network


def _diamond_instance():
    return (
        media.build_app("src", "dst"),
        build_diamond_network(),
        media.proportional_leveling((90.0, 100.0)),
    )


def test_invalid_mode_rejected():
    app, net, lev = _diamond_instance()
    planner = Planner(PlannerConfig(leveling=lev, static_prune="aggressive"))
    with pytest.raises(ValueError, match="static_prune"):
        planner.solve(app, net)


def test_all_modes_same_cost_on_diamond():
    app, net, lev = _diamond_instance()
    plans = {}
    for mode in (None, "off", "dead", "symmetry", "full"):
        plans[mode] = Planner(
            PlannerConfig(leveling=lev, static_prune=mode)
        ).solve(app, net)
    baseline = plans[None].cost_lb
    for mode, plan in plans.items():
        assert plan.cost_lb == pytest.approx(baseline), mode


def test_symmetry_prune_fires_on_diamond():
    app, net, lev = _diamond_instance()
    plan = Planner(PlannerConfig(leveling=lev, static_prune="full")).solve(app, net)
    assert plan.stats.rg_sym_pruned > 0
    assert plan.stats.analysis_ms > 0.0
    # "dead" mode must not enable the symmetry prune.
    plan_dead = Planner(PlannerConfig(leveling=lev, static_prune="dead")).solve(app, net)
    assert plan_dead.stats.rg_sym_pruned == 0


def test_symmetry_prune_on_fig10_route():
    """A Fig-10 route through verified twin nodes: same cost, smaller RG."""
    case = network_case("Large")
    app = media.build_app("t0_0_s0_0", "t0_0_s1_7")
    lev = scenario("B").leveling()
    plans = {
        mode: Planner(
            PlannerConfig(leveling=lev, rg_node_budget=500_000, static_prune=mode)
        ).solve(app, case.network)
        for mode in ("off", "full")
    }
    assert plans["off"].cost_lb == plans["full"].cost_lb == pytest.approx(12.0)
    assert plans["full"].stats.rg_sym_pruned > 0
    assert plans["full"].stats.rg_nodes < plans["off"].stats.rg_nodes


def test_off_mode_costs_nothing():
    app, net, lev = _diamond_instance()
    plan = Planner(PlannerConfig(leveling=lev, static_prune="off")).solve(app, net)
    assert plan.stats.static_pruned == 0
    assert plan.stats.rg_sym_pruned == 0
    assert plan.stats.analysis_ms == 0.0


def test_prune_telemetry_counters():
    tele = Telemetry(trace=False)
    plan = Planner(PlannerConfig(static_prune="full", telemetry=tele)).solve(
        build_dead_app(), build_dead_network()
    )
    snap = {m["name"]: m for m in tele.metrics.snapshot()}
    assert snap["analysis.dead_actions"]["value"] == plan.stats.static_pruned == 2
    assert "analysis.ms" in snap
    assert "analysis.sym.classes" in snap
    assert "analysis.envelope.tightened" in snap
    span_names = [s.name for s in tele.spans.spans]
    assert "analysis" in span_names


def test_compile_cache_shares_analysis():
    app, net, lev = _diamond_instance()
    cache = CompileCache()
    tele = Telemetry(trace=False)

    first = cache.compile(app, net, lev, analyze=True, metrics=tele.metrics)
    assert first.analysis is not None
    assert (cache.analysis_hits, cache.analysis_misses) == (0, 1)

    second = cache.compile(app, net, lev, analyze=True, metrics=tele.metrics)
    assert second.analysis is first.analysis  # shared by reference
    assert (cache.analysis_hits, cache.analysis_misses) == (1, 1)

    snap = {m["name"]: m["value"] for m in tele.metrics.snapshot()}
    assert snap["cache.analysis.hit"] == 1
    assert snap["cache.analysis.miss"] == 1
    assert snap["cache.miss"] == 1
    assert snap["cache.hit"] == 1

    stats = cache.stats()
    assert stats["analysis_hits"] == 1
    assert stats["analysis_misses"] == 1


def test_cached_analysis_reused_by_planner():
    """A problem compiled with ``analyze=True`` skips the inline analysis."""
    app, net, lev = _diamond_instance()
    cache = CompileCache()
    problem = cache.compile(app, net, lev, analyze=True)
    planner = Planner(PlannerConfig(leveling=lev, static_prune="full"))
    plan = planner.solve(problem=problem)
    assert plan.stats.rg_sym_pruned > 0
    # analysis_ms reports the cached analysis' own (nonzero) runtime.
    assert plan.stats.analysis_ms == pytest.approx(
        problem.analysis.analysis_seconds * 1e3
    )
