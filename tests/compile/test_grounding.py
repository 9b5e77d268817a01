"""Unit tests for grounding and leveling — the paper's static prunes."""

import pytest

from repro.compile import compile_problem
from repro.domains.media import build_app, proportional_leveling
from repro.network import chain_network, pair_network


@pytest.fixture
def tiny():
    return pair_network(cpu=30.0, link_bw=70.0)


@pytest.fixture
def app():
    return build_app("n0", "n1")


def actions_named(problem, prefix):
    return [a for a in problem.actions if a.name.startswith(prefix)]


class TestLevelExpansion:
    def test_action_counts_grow_with_levels(self, app, tiny):
        counts = {}
        for key, cuts, link in [
            ("A", (), ()),
            ("B", (100,), ()),
            ("C", (90, 100), ()),
            ("D", (30, 70, 90, 100), ()),
            ("E", (30, 70, 90, 100), (31, 62)),
        ]:
            problem = compile_problem(app, tiny, proportional_leveling(cuts, link))
            counts[key] = len(problem.actions)
        assert counts["A"] < counts["B"] < counts["C"] < counts["D"] < counts["E"]

    def test_paper_tiny_d_count_matches(self, app, tiny):
        # The paper reports 76 leveled actions for Tiny/D; the compilation
        # should land in the same ballpark (exact equality is a bonus).
        problem = compile_problem(app, tiny, proportional_leveling((30, 70, 90, 100)))
        assert 60 <= len(problem.actions) <= 95


class TestGreedyPrunes:
    def test_scenario_a_splitter_pruned_on_weak_node(self, app, tiny):
        """Splitting 200 units needs 40 CPU; n0 has 30 (Fig. 3)."""
        problem = compile_problem(app, tiny, proportional_leveling(()))
        names = [a.name for a in actions_named(problem, "place(Splitter")]
        assert not any("n0" in n for n in names)
        assert any("n1" in n for n in names)  # ample CPU at the target

    def test_leveled_splitter_survives_on_weak_node(self, app, tiny):
        problem = compile_problem(app, tiny, proportional_leveling((100,)))
        names = [a.name for a in actions_named(problem, "place(Splitter,n0)")]
        assert names  # level [0,100) caps worst-case CPU at 20+7


class TestConditionPrunes:
    def test_client_demand_prunes_low_levels(self, app, tiny):
        problem = compile_problem(app, tiny, proportional_leveling((90, 100)))
        clients = actions_named(problem, "place(Client")
        # level 0 = [0,90) cannot satisfy >= 90; levels 1 and 2 can.
        assert sorted(a.name for a in clients) == [
            "place(Client,n1)[M.ibw=1]",
            "place(Client,n1)[M.ibw=2]",
        ]

    def test_merger_ratio_prunes_off_diagonal(self, app, tiny):
        problem = compile_problem(app, tiny, proportional_leveling((30, 70, 90, 100)))
        mergers = actions_named(problem, "place(Merger")
        for a in mergers:
            levels = dict(
                part.split("=") for part in a.name.split("[")[1].rstrip("]").split(",")
            )
            assert levels["T.ibw"] == levels["I.ibw"]

    def test_client_only_grounded_at_goal_node(self, app, tiny):
        problem = compile_problem(app, tiny, proportional_leveling((90, 100)))
        assert all(a.node == "n1" for a in actions_named(problem, "place(Client"))

    def test_preplaced_server_not_grounded(self, app, tiny):
        problem = compile_problem(app, tiny, proportional_leveling((90, 100)))
        assert not actions_named(problem, "place(Server")


class TestCrossActions:
    def test_dominated_degradation_pruned(self, app, tiny):
        """Crossing M at a level the 70-unit link cannot sustain is
        subsumed by crossing at the lower level (the paper's prune)."""
        problem = compile_problem(app, tiny, proportional_leveling((30, 70, 90, 100)))
        m_crossings = actions_named(problem, "cross(M,n0->n1)")
        committed = sorted(a.name.split("=")[-1].rstrip("]") for a in m_crossings)
        # Levels [70,90), [90,100), [100,200] all truncate to 70 -> pruned.
        assert committed == ["0", "1", "2"]

    def test_both_directions_grounded(self, app, tiny):
        problem = compile_problem(app, tiny, proportional_leveling((90, 100)))
        assert actions_named(problem, "cross(I,n0->n1)")
        assert actions_named(problem, "cross(I,n1->n0)")

    def test_cross_preserves_level_on_wide_link(self, app):
        net = chain_network([(150, "LAN")], cpu=30.0)
        problem = compile_problem(build_app("n0", "n1"), net,
                                  proportional_leveling((90, 100)))
        for a in problem.actions:
            if a.name.startswith("cross(M,n0->n1)[M.ibw=1"):
                main_prop = problem.props[a.primary_adds[0]]
                assert main_prop.levels == (1,)
                break
        else:
            pytest.fail("no M crossing at level 1 found")


class TestActionStructure:
    def test_pre_and_add_props_consistent(self, app, tiny):
        problem = compile_problem(app, tiny, proportional_leveling((90, 100)))
        for action in problem.actions:
            assert action.primary_adds
            for pid in action.primary_adds:
                assert pid in action.add_props
            for pid in action.pre_props | action.add_props:
                assert 0 <= pid < len(problem.props)

    def test_degradable_closure_in_adds(self, app, tiny):
        problem = compile_problem(app, tiny, proportional_leveling((30, 70, 90, 100)))
        for a in problem.actions:
            if a.name == "place(Splitter,n0)[M.ibw=3]":
                added = {str(problem.props[p]) for p in a.add_props}
                assert "avail(T,n0,L=3)" in added
                assert "avail(T,n0,L=0)" in added  # degradable closure
                return
        pytest.fail("expected splitter action not found")

    def test_cost_lb_nonnegative(self, app, tiny):
        problem = compile_problem(app, tiny, proportional_leveling((30, 70, 90, 100)))
        assert all(a.cost_lb >= 0 for a in problem.actions)

    def test_cost_lb_uses_level_lower_end(self, app, tiny):
        problem = compile_problem(app, tiny, proportional_leveling((90, 100)))
        for a in problem.actions:
            if a.name == "place(Splitter,n0)[M.ibw=1]":
                assert a.cost_lb == pytest.approx(1 + 90 / 10)
                return
        pytest.fail("splitter at level 1 not found")


class TestTemplates:
    def test_one_template_per_combo_and_capacity_class(self, app):
        """Nodes and links with equal capacities share their templates."""
        uniform = chain_network([(150, "LAN"), (150, "LAN")], cpu=30.0)
        mixed = chain_network([(150, "LAN"), (70, "WAN")], cpu=30.0)
        lev = proportional_leveling((90, 100))
        one = compile_problem(build_app("n0", "n2"), uniform, lev)
        two = compile_problem(build_app("n0", "n2"), mixed, lev)
        assert 0 < one.ground_templates < len(one.actions)
        assert two.ground_templates > one.ground_templates  # a second link class

    def test_bindings_share_interned_prop_sets(self):
        """n1 is entered over two links: those crossings share add sets."""
        net = chain_network([(150, "LAN"), (150, "LAN")], cpu=30.0)
        problem = compile_problem(build_app("n0", "n2"), net, proportional_leveling((90, 100)))
        by_target: dict = {}
        for a in problem.actions:
            if a.kind == "cross":
                by_target.setdefault((a.dst, a.primary_adds), []).append(a.add_props)
        shared = [sets for sets in by_target.values() if len(sets) > 1]
        assert shared
        for sets in shared:
            assert all(s is sets[0] for s in sets)

    def test_compile_span_reports_templates_and_pruning(self, app, tiny):
        from repro.obs import Telemetry
        from repro.planner import Planner, PlannerConfig

        tele = Telemetry()
        config = PlannerConfig(leveling=proportional_leveling((90, 100)), telemetry=tele)
        plan = Planner(config).solve(app, tiny)
        (span,) = [sp for sp in tele.spans.spans if sp.name == "compile"]
        assert span.attrs["templates"] == plan.problem.ground_templates > 0
        assert span.attrs["reach_pruned"] == plan.problem.reachability_pruned
