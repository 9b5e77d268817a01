"""Tests for portfolio racing (solve_robust(workers>1)).

Racing must preserve the ladder's *semantics* — same acceptance policy,
same fatal-error behavior — while only changing wall clock.  On an
unconstrained instance the racing winner must be the same plan the
sequential walk returns.
"""

import pytest

from repro.domains import media
from repro.experiments import scenario
from repro.network import chain_network
from repro.obs import Telemetry
from repro.planner import PlannerConfig, solve_robust

pytestmark = pytest.mark.slow  # spawns real rung processes

LEV = media.proportional_leveling((30, 70, 90, 100))


def chain_instance():
    net = chain_network([(150, "LAN"), (150, "LAN")], cpu=30.0)
    return media.build_app("n0", "n2"), net


class TestRacingMatchesSequential:
    def test_full_rung_wins_with_identical_plan(self):
        app, net = chain_instance()
        seq = solve_robust(app, net, LEV, workers=1)
        raced = solve_robust(app, net, LEV, workers=4)
        assert seq.solved and raced.solved
        assert raced.rung == seq.rung == "full"
        assert [a.name for a in raced.plan.actions] == [
            a.name for a in seq.plan.actions
        ]
        assert raced.plan.cost_lb == seq.plan.cost_lb

    def test_losers_recorded_without_errors(self):
        app, net = chain_instance()
        raced = solve_robust(app, net, LEV, workers=4)
        by_rung = {a.rung: a for a in raced.attempts}
        assert by_rung["full"].succeeded
        assert raced.rung == "full"  # winner by priority, not arrival
        for rung in ("coarsened", "greedy"):
            assert rung in by_rung
            # A loser either got cancelled mid-run or finished first and
            # was outranked by the full rung — both are legal; what's
            # illegal is a planner error on this easy instance.
            attempt = by_rung[rung]
            assert attempt.succeeded or attempt.error_type == "Cancelled"

    def test_metrics_record_winner_and_cancellations(self):
        app, net = chain_instance()
        tele = Telemetry()
        out = solve_robust(app, net, LEV, telemetry=tele, workers=4)
        assert out.rung == "full"
        assert tele.metrics.counter("robust.fallback.full").value == 1
        assert tele.metrics.counter("robust.attempt.full").value == 1

    def test_workers_1_is_the_sequential_path(self):
        """workers=1 must not touch the racing machinery at all."""
        app, net = chain_instance()
        tele = Telemetry()
        out = solve_robust(app, net, LEV, telemetry=tele, workers=1)
        assert out.solved and out.rung == "full"
        # sequential walk never records cancellations
        assert all(a.error_type != "Cancelled" for a in out.attempts)
        assert tele.metrics.get("robust.cancelled.coarsened") is None


class TestRacingFatalErrors:
    def test_unsolvable_aborts_the_whole_race(self):
        # The client's link is starved below any useful stream: no rung
        # can fix an unreachable goal (same instance as the sequential
        # ladder's stop-early test).
        net = chain_network([(150, "LAN"), (10, "LAN")], cpu=30.0)
        app = media.build_app("n0", "n2")
        seq = solve_robust(app, net, LEV, workers=1)
        raced = solve_robust(app, net, LEV, workers=2)
        assert not seq.solved and not raced.solved
        seq_errors = {a.rung: a.error_type for a in seq.attempts if a.error_type}
        raced_errors = {a.rung: a.error_type for a in raced.attempts if a.error_type}
        # the fatal error type observed sequentially appears in the race too
        fatal = {"Unsolvable", "ResourceInfeasible"}
        assert set(seq_errors.values()) & fatal
        assert set(raced_errors.values()) & fatal

    def test_failed_race_increments_failed_counter(self):
        net = chain_network([(150, "LAN"), (10, "LAN")], cpu=30.0)
        app = media.build_app("n0", "n2")
        tele = Telemetry()
        out = solve_robust(app, net, LEV, telemetry=tele, workers=2)
        assert not out.solved
        assert tele.metrics.counter("robust.failed").value == 1


class TestRacingUnderDeadline:
    def test_deadline_still_produces_a_plan_or_honest_failure(self):
        app, net = chain_instance()
        out = solve_robust(
            app,
            net,
            LEV,
            config=PlannerConfig(rg_node_budget=200_000),
            time_limit_s=20.0,
            workers=2,
        )
        # With a generous deadline on a small instance, some rung wins.
        assert out.solved
        assert out.rung in ("full", "anytime", "coarsened", "greedy")


class TestRacingRestoresTheWinningProblem:
    def test_bound_overrides_survive_the_trip_home(self):
        # The winner is rebound to a problem compiled from the winning
        # rung's own inputs, bound overrides included.
        net = chain_network([(150, "LAN")] * 3, cpu=1000)
        app = media.build_app("n0", "n3")
        config = PlannerConfig(bound_overrides={"M.ibw": 120.0})
        leveling = scenario("C").leveling()
        seq = solve_robust(app, net, leveling, config=config, workers=1)
        raced = solve_robust(app, net, leveling, config=config, workers=2)
        assert seq.plan.problem.bounds["M.ibw"] == 120.0
        assert raced.plan.problem.bounds == seq.plan.problem.bounds
        assert [a.name for a in raced.plan.actions] == [
            a.name for a in seq.plan.actions
        ]
