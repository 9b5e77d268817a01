"""The racing ladder on the supervisor: recovery, tracing, nested workers.

``solve_robust(workers>1)`` runs its rungs through ``Supervisor.race``,
so a crashing rung gets the supervisor's retry and respawn, the winner's
worker spans land in the coordinator trace, and a rung whose config
asks for hierarchical domain workers still plans inside a (daemonic)
supervisor worker.
"""

import os

import pytest

from repro.domains import media
from repro.experiments import large_case, scenario
from repro.hierarchy import HierarchyConfig
from repro.network import chain_network
from repro.obs import Telemetry
from repro.parallel import Supervisor, SupervisorConfig
from repro.planner import Planner, PlannerConfig, solve_robust

pytestmark = pytest.mark.slow  # spawns real worker processes

LEV = media.proportional_leveling((30, 70, 90, 100))


def chain_instance():
    net = chain_network([(150, "LAN"), (150, "LAN")], cpu=30.0)
    return media.build_app("n0", "n2"), net


def names(plan):
    return [a.name for a in plan.actions]


def kill_full_rung_once(monkeypatch):
    """Payload 0 of every race is the full rung: its worker SIGKILLs itself once."""
    race = Supervisor.race

    def race_killing_full(self, fn, payloads, accept, deadline_s=None, inject_kill=()):
        return race(self, fn, payloads, accept, deadline_s, inject_kill={0})

    monkeypatch.setattr(Supervisor, "race", race_killing_full)


class TestCrashingRung:
    def test_killed_full_rung_is_retried_to_the_sequential_plan(self, monkeypatch):
        kill_full_rung_once(monkeypatch)
        app, net = chain_instance()
        seq = solve_robust(app, net, LEV, workers=1)
        tele = Telemetry()
        raced = solve_robust(app, net, LEV, telemetry=tele, workers=2)
        assert raced.rung == seq.rung == "full"
        assert names(raced.plan) == names(seq.plan)
        assert raced.plan.cost_lb == seq.plan.cost_lb
        assert tele.metrics.counter("pool.worker.respawned").value == 1
        assert tele.metrics.counter("pool.task.retried").value == 1
        respawns = [sp for sp in tele.spans.spans if sp.name == "supervise.respawn"]
        assert len(respawns) == 1

    def test_quarantined_rung_is_recorded_and_the_next_rung_wins(self, monkeypatch):
        kill_full_rung_once(monkeypatch)
        init = Supervisor.__init__

        def init_poison_after_one_kill(self, workers, config=None, telemetry=None, metrics=None):
            init(self, workers, SupervisorConfig(poison_kills=1), telemetry, metrics)

        monkeypatch.setattr(Supervisor, "__init__", init_poison_after_one_kill)
        app, net = chain_instance()
        out = solve_robust(app, net, LEV, workers=2)
        full = next(a for a in out.attempts if a.rung == "full")
        assert full.error_type == "Quarantined" and "poison" in full.detail
        assert out.solved and out.rung == "coarsened"


class TestTracedRace:
    def test_winner_spans_stitch_under_the_race_span(self):
        app, net = chain_instance()
        tele = Telemetry()
        out = solve_robust(app, net, LEV, telemetry=tele, workers=2)
        assert out.rung == "full"
        race_span = next(sp for sp in tele.spans.spans if sp.name == "robust.race")
        assert tele.remote_spans, "the winning rung shipped no spans home"
        # One worker lane: only the winner's snapshot is stitched.
        pids = {sp.pid for sp in tele.remote_spans}
        assert len(pids) == 1 and os.getpid() not in pids
        roots = [sp for sp in tele.remote_spans if sp.parent == race_span.id]
        assert {sp.name for sp in roots} >= {"compile"}

    def test_loser_metrics_are_not_merged(self):
        app, net = chain_instance()
        tele = Telemetry()
        solve_robust(app, net, LEV, telemetry=tele, workers=2)
        alone = Telemetry()
        Planner(PlannerConfig(leveling=LEV, anytime=True, telemetry=alone)).solve(
            app, net
        )
        # Every rung validates its plan once; only the winner counts.
        assert tele.metrics.counter("executor.plans").value == 1
        assert (
            tele.metrics.get("planner.total_actions").value
            == alone.metrics.get("planner.total_actions").value
        )


class TestNestedWorkers:
    def test_hierarchy_workers_inside_a_racing_rung(self):
        app = media.build_app("t0_0_s0_0", "t0_2_s2_5")
        network = large_case().network
        leveling = scenario("C").leveling()
        config = PlannerConfig(hierarchy=HierarchyConfig(workers=2))
        seq = solve_robust(app, network, leveling, config=config, workers=1)
        raced = solve_robust(app, network, leveling, config=config, workers=2)
        assert raced.rung == seq.rung == "full"
        assert raced.plan.cost_lb == pytest.approx(71.7)
        assert raced.plan.cost_lb == seq.plan.cost_lb
        assert names(raced.plan) == names(seq.plan)
