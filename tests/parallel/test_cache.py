"""Tests for content fingerprints and the warm-start compile cache.

The load-bearing properties: a cache hit is *semantically invisible*
(same actions, same plans, same records — only timings change), any
change to the app / network / leveling changes the key (no stale hits),
and the consumer may freely mutate what the cache hands out (deployment
repair rewrites initial state and discounts costs) without poisoning
later hits.
"""

import pytest

from repro.domains import media
from repro.model import Leveling, LevelSpec
from repro.network import chain_network
from repro.obs import Telemetry
from repro.parallel import (
    CompileCache,
    app_fingerprint,
    leveling_fingerprint,
    network_fingerprint,
)
from repro.planner import Planner, PlannerConfig
from repro.simulate import LinkChange, apply_event

LEV = media.proportional_leveling((90, 100))


def instance():
    net = chain_network([(150, "LAN"), (150, "LAN")], cpu=30.0)
    return media.build_app("n0", "n2"), net


class TestFingerprints:
    def test_stable_across_identical_rebuilds(self):
        app1, net1 = instance()
        app2, net2 = instance()
        assert app_fingerprint(app1) == app_fingerprint(app2)
        assert network_fingerprint(net1) == network_fingerprint(net2)
        assert leveling_fingerprint(LEV) == leveling_fingerprint(
            media.proportional_leveling((90, 100))
        )

    def test_network_capacity_change_changes_key(self):
        _, net = instance()
        changed = apply_event(net, LinkChange("n0", "n1", "lbw", 70.0))
        assert network_fingerprint(net) != network_fingerprint(changed)

    def test_leveling_change_changes_key(self):
        other = Leveling({"M.ibw": LevelSpec((50.0, 100.0))}, name=LEV.name)
        assert leveling_fingerprint(LEV) != leveling_fingerprint(other)
        assert leveling_fingerprint(None) != leveling_fingerprint(LEV)

    def test_app_placement_change_changes_key(self):
        app_a, _ = instance()
        app_b = media.build_app("n0", "n1")
        assert app_fingerprint(app_a) != app_fingerprint(app_b)


class TestCompileCache:
    def test_hit_returns_equivalent_problem(self):
        app, net = instance()
        cache = CompileCache()
        p1 = cache.compile(app, net, LEV)
        p2 = cache.compile(app, net, LEV)
        assert cache.stats()["misses"] == 1 and cache.stats()["hits"] == 1
        assert p1 is not p2
        assert [a.name for a in p1.actions] == [a.name for a in p2.actions]
        assert p1.initial_values == p2.initial_values
        # and the hit solves to the same plan
        s1 = Planner(PlannerConfig(leveling=LEV)).solve(problem=p1)
        s2 = Planner(PlannerConfig(leveling=LEV)).solve(problem=p2)
        assert [a.name for a in s1.actions] == [a.name for a in s2.actions]
        assert s1.cost_lb == s2.cost_lb

    def test_mutating_a_hit_does_not_poison_the_cache(self):
        app, net = instance()
        cache = CompileCache()
        p1 = cache.compile(app, net, LEV)
        baseline_costs = [a.cost_lb for a in p1.actions]
        for action in p1.actions:  # what deployment repair does
            action.cost_lb *= 0.5
        p1.initial_prop_ids = frozenset()
        p2 = cache.compile(app, net, LEV)
        assert [a.cost_lb for a in p2.actions] == baseline_costs
        assert p2.initial_prop_ids != frozenset()

    def test_distinct_keys_do_not_collide(self):
        app, net = instance()
        changed = apply_event(net, LinkChange("n0", "n1", "lbw", 70.0))
        cache = CompileCache()
        cache.compile(app, net, LEV)
        cache.compile(app, changed, LEV)
        assert cache.stats()["misses"] == 2 and cache.stats()["hits"] == 0

    def test_metrics_counters(self):
        app, net = instance()
        cache = CompileCache()
        tele = Telemetry()
        cache.compile(app, net, LEV, metrics=tele.metrics)
        cache.compile(app, net, LEV, metrics=tele.metrics)
        assert tele.metrics.counter("cache.miss").value == 1
        assert tele.metrics.counter("cache.hit").value == 1

    def test_lru_eviction(self):
        app, net = instance()
        cache = CompileCache(max_entries=1)
        changed = apply_event(net, LinkChange("n0", "n1", "lbw", 70.0))
        cache.compile(app, net, LEV)
        cache.compile(app, changed, LEV)  # evicts the first entry
        assert len(cache) == 1
        cache.compile(app, net, LEV)
        assert cache.stats()["misses"] == 3

    def test_validation_memo(self):
        app, net = instance()
        cache = CompileCache()
        cache.require_valid(app, net)
        cache.require_valid(app, net)
        stats = cache.stats()
        assert stats["validate_misses"] == 1 and stats["validate_hits"] == 1

    def test_compile_success_seeds_validation_memo(self):
        app, net = instance()
        cache = CompileCache()
        cache.compile(app, net, LEV)
        cache.require_valid(app, net)
        assert cache.stats()["validate_hits"] == 1

    def test_validation_failures_are_never_cached(self):
        app, _ = instance()
        lonely = chain_network([(150, "LAN")])  # n2 (goal pin) does not exist
        cache = CompileCache()
        for _ in range(2):
            with pytest.raises(ValueError):
                cache.require_valid(app, lonely)
        assert cache.stats()["validate_misses"] == 2


class TestRepairThroughCache:
    """Satellite: repeated repair steps stop re-compiling the app spec."""

    def test_repair_compiles_same_key_twice_one_compile(self):
        from repro.planner import Deployment, repair_deployment

        app, net = instance()
        plan = Planner(PlannerConfig(leveling=LEV)).solve(app, net)
        cache = CompileCache()
        degraded = apply_event(net, LinkChange("n0", "n1", "lbw", 100.0))
        result = repair_deployment(
            app,
            degraded,
            Deployment.from_plan(plan),
            leveling=LEV,
            compile_cache=cache,
        )
        # repair problem (miss) + stitched validation (hit on the same key)
        assert cache.stats()["misses"] == 1
        assert cache.stats()["hits"] == 1
        assert result.repair_plan is not None

    def test_repair_result_identical_with_and_without_cache(self):
        from repro.planner import Deployment, repair_deployment

        app, net = instance()
        plan = Planner(PlannerConfig(leveling=LEV)).solve(app, net)
        degraded = apply_event(net, LinkChange("n0", "n1", "lbw", 100.0))

        def run(cache):
            r = repair_deployment(
                app,
                degraded,
                Deployment.from_plan(plan),
                leveling=LEV,
                compile_cache=cache,
            )
            return (
                [a.name for a in r.surviving_actions],
                [a.name for a in r.repair_plan.actions],
                r.migrated_components,
            )

        assert run(None) == run(CompileCache())

    def test_simulation_uses_cache_and_matches_uncached_record(self):
        from repro.simulate import Simulation

        app, net = instance()
        events = [
            LinkChange("n0", "n1", "lbw", 100.0),
            LinkChange("n0", "n1", "lbw", 150.0),
            LinkChange("n0", "n1", "lbw", 100.0),  # revisits a seen state
        ]
        cache = CompileCache()
        cached = Simulation(app, net, LEV, compile_cache=cache).run(events)
        uncached = Simulation(app, net, LEV, compile_cache=None).run(events)
        assert cached.to_dict() == uncached.to_dict()
        # 3 steps x 2 compiles + initial solve = 7 compilations requested;
        # revisited states make strictly more than half of them hits.
        stats = cache.stats()
        assert stats["hits"] + stats["misses"] == 7
        assert stats["hits"] >= 4

    def test_table2_rows_identical_through_a_warm_cache(self):
        from repro.experiments import run_table2

        grid = (("Tiny", "Small"), ("B", "C", "D", "E"))
        uncached = [row.to_record() for row in run_table2(*grid)]
        cache = CompileCache()
        cold = [row.to_record() for row in run_table2(*grid, compile_cache=cache)]
        warm = [row.to_record() for row in run_table2(*grid, compile_cache=cache)]
        assert cold == uncached
        assert warm == uncached
        # Round two is served entirely from the cache.
        assert cache.stats()["hits"] == len(uncached) == 8
