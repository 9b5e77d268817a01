"""Unit tests for wall-clock deadlines and anytime search."""

import time

import pytest

from repro.compile import compile_problem
from repro.domains import media
from repro.experiments.scaling import scaling_network
from repro.experiments.scenarios import scenario
from repro.network import chain_network
from repro.obs import Telemetry
from repro.planner import (
    Deadline,
    DeadlineExceeded,
    Planner,
    PlannerConfig,
    SearchBudgetExceeded,
    build_plrg,
    regression_search,
    solve,
)

LEV = media.proportional_leveling((90, 100))


def chain_instance():
    net = chain_network([(150, "LAN"), (150, "LAN")], cpu=30.0)
    return media.build_app("n0", "n2"), net


class TestDeadline:
    def test_not_expired_before_limit(self):
        d = Deadline.after(60.0)
        assert not d.expired()
        assert d.remaining_s() > 59.0
        assert d.elapsed_s() < 1.0

    def test_expired_after_limit(self):
        d = Deadline.after(0.0)
        time.sleep(0.001)
        assert d.expired()
        assert d.remaining_s() <= 0.0

    def test_poll_is_strided(self):
        d = Deadline.after(0.0, stride=1000)
        time.sleep(0.001)
        # The first stride-1 polls skip the clock read entirely.
        assert not any(d.poll() for _ in range(999))
        assert d.poll()

    def test_tightest_picks_earlier(self):
        loose, tight = Deadline.after(60.0), Deadline.after(1.0)
        assert loose.tightest(tight) is tight
        assert tight.tightest(loose) is tight
        assert tight.tightest(None) is tight

    def test_exception_attributes(self):
        exc = DeadlineExceeded(
            phase="rg", time_limit_s=1.5, nodes_expanded=7, nodes_created=9, elapsed_s=1.6
        )
        assert isinstance(exc, SearchBudgetExceeded)  # except-clause compat
        assert exc.phase == "rg"
        assert exc.time_limit_s == 1.5
        assert exc.nodes_created == 9
        assert "1.500s" in str(exc)

    def test_budget_exception_message_deterministic(self):
        # Fault campaigns diff recorded failure strings across runs, so
        # the node-budget message must not embed wall-clock readings.
        exc = SearchBudgetExceeded(
            phase="rg", budget=10, nodes_created=11, nodes_expanded=5, elapsed_s=0.123
        )
        assert "0.123" not in str(exc)
        assert exc.elapsed_s == 0.123


class TestAnytimePlanning:
    def test_generous_deadline_solves_optimally(self):
        app, net = chain_instance()
        plan = solve(app, net, LEV, time_limit_s=60.0)
        assert not plan.incumbent
        assert plan.stop_reason == "optimal"
        assert plan.stats.deadline_hits == 0

    def test_tiny_deadline_raises_with_phase(self):
        app, net = chain_instance()
        with pytest.raises(DeadlineExceeded) as info:
            solve(app, net, LEV, time_limit_s=1e-6)
        assert info.value.phase in ("plrg", "slrg", "rg")
        assert info.value.time_limit_s == 1e-6
        assert info.value.elapsed_s > 0

    def test_budget_cut_returns_incumbent_in_anytime_mode(self):
        app, net = chain_instance()
        plan = solve(app, net, LEV, rg_node_budget=1, anytime=True)
        assert plan.incumbent
        assert plan.stop_reason == "node_budget"
        assert plan.actions  # a complete, validated plan (validate=True ran)
        assert plan.stats.incumbent == 1

    def test_budget_only_runs_stay_strict_by_default(self):
        # anytime=None must not change pre-deadline semantics: without a
        # time limit, a blown budget still raises.
        app, net = chain_instance()
        with pytest.raises(SearchBudgetExceeded):
            solve(app, net, LEV, rg_node_budget=1)

    def test_incumbent_metrics_and_plan_roundtrip(self):
        app, net = chain_instance()
        tele = Telemetry()
        plan = Planner(
            PlannerConfig(leveling=LEV, rg_node_budget=1, anytime=True, telemetry=tele)
        ).solve(app, net)
        names = {m["name"] for m in tele.metrics.snapshot()}
        assert "planner.incumbent.returned" in names
        assert "[incumbent]" in plan.describe()
        data = plan.to_dict()
        assert data["incumbent"] is True
        assert data["stop_reason"] == "node_budget"

    def test_anytime_false_forces_raise_even_with_deadline(self):
        app, net = chain_instance()
        with pytest.raises(SearchBudgetExceeded):
            solve(app, net, LEV, rg_node_budget=1, anytime=False, time_limit_s=60.0)


class TestElapsedSeconds:
    """What ``elapsed_s`` reports, phase by phase (docs/ROBUSTNESS.md)."""

    SLEEP_S = 0.2

    @pytest.fixture()
    def slow_compile(self, monkeypatch):
        """Pad compilation so it spends most of the total deadline."""
        import repro.planner.planner as planner_mod

        real = planner_mod.compile_problem

        def padded(*args, **kwargs):
            time.sleep(self.SLEEP_S)
            return real(*args, **kwargs)

        monkeypatch.setattr(planner_mod, "compile_problem", padded)

    def test_deadline_elapsed_counts_from_its_anchor(self, slow_compile):
        # The total deadline is anchored at solve() entry, so the padded
        # compile spends 0.2 s of it and the RG (~0.2 s on this instance)
        # is still searching when it fires.  The error must report the
        # deadline's age, not the time since the RG phase began.
        net, server, client = scaling_network(3)
        config = PlannerConfig(
            leveling=scenario("B").leveling(), time_limit_s=0.25, anytime=False
        )
        with pytest.raises(DeadlineExceeded) as info:
            Planner(config).solve(media.build_app(server, client), net)
        exc = info.value
        assert exc.time_limit_s == 0.25
        assert exc.elapsed_s >= exc.time_limit_s
        assert f"after {exc.elapsed_s:.3f}s" in str(exc)

    def test_node_budget_elapsed_is_the_rg_span(self):
        app, net = chain_instance()
        tele = Telemetry(trace=False)
        config = PlannerConfig(leveling=LEV, rg_node_budget=1, telemetry=tele)
        with pytest.raises(SearchBudgetExceeded) as info:
            Planner(config).solve(app, net)
        (rg,) = [sp for sp in tele.spans.spans if sp.name == "rg"]
        assert info.value.elapsed_s == rg.duration_s > 0.0

    def test_direct_regression_search_reports_zero(self):
        app, net = chain_instance()
        problem = compile_problem(app, net, LEV)
        plrg = build_plrg(problem)
        with pytest.raises(SearchBudgetExceeded) as info:
            regression_search(problem, plrg.set_cost, plrg.usable_actions, node_budget=1)
        assert info.value.elapsed_s == 0.0
