"""Tests for the fleet controller (repro.simulate.controller).

The headline properties: the controller record is deterministic for a
fixed (spec, seed, fleet) — at any worker count, and with delta
replanning on or off (only the ``summary.delta_hits`` /
``summary.delta_full`` provenance counters may differ).
"""

import json
from pathlib import Path

import pytest

from repro.domains import media
from repro.model import AppSpec, Leveling, LevelSpec, parse_spec_text
from repro.network import chain_network, load_network
from repro.obs import Telemetry
from repro.parallel import CompileCache, RepairTask
from repro.simulate import repair_member, replicate_apps, run_campaign_run, run_controller

LEV = media.proportional_leveling((90, 100))
EXAMPLES = Path(__file__).resolve().parents[1] / "examples"


def fleet_net():
    return chain_network([(150, "LAN"), (150, "LAN")], cpu=30.0, name="fleetnet")


def strip_provenance(record: dict) -> dict:
    out = dict(record)
    out["summary"] = {
        k: v
        for k, v in record["summary"].items()
        if k not in ("delta_hits", "delta_full")
    }
    return out


SPEC = {"fleet": 2, "faults": {"seed": 7, "events": 3}, "rg_node_budget": 20_000}


class TestReplicateApps:
    def test_members_get_distinct_names(self):
        app = media.build_app("n0", "n2")
        members = replicate_apps(app, 3)
        assert [m.name for m in members] == [
            f"{app.name}-0",
            f"{app.name}-1",
            f"{app.name}-2",
        ]
        assert app.name == "media-delivery"  # original untouched

    def test_rejects_empty_fleet(self):
        with pytest.raises(ValueError):
            replicate_apps(media.build_app("n0", "n2"), 0)


class TestRepairMember:
    def test_redeploy_when_no_deployment(self):
        outcome = repair_member(
            RepairTask(
                app=media.build_app("n0", "n2"),
                network=fleet_net(),
                leveling=LEV,
                deployment_names=None,
            )
        )
        assert outcome.outcome == "redeployed"
        assert not outcome.failed
        assert outcome.deployment_names
        assert outcome.total_cost > 0

    def test_outage_when_replanning_disabled(self):
        outcome = repair_member(
            RepairTask(
                app=media.build_app("n0", "n2"),
                network=fleet_net(),
                leveling=LEV,
                deployment_names=None,
                replan_from_scratch=False,
            )
        )
        assert outcome.outcome == "outage"
        assert outcome.failed
        assert "replanning disabled" in outcome.failure
        # docs/ROBUSTNESS.md: every outage reads "ErrorType: message".
        assert outcome.failure == "PlanningError: deployment lost and replanning disabled"

    def test_planning_failure_is_an_outage_not_an_exception(self):
        starved = chain_network([(10, "LAN"), (10, "LAN")], cpu=30.0, name="weak")
        outcome = repair_member(
            RepairTask(
                app=media.build_app("n0", "n2"),
                network=starved,
                leveling=LEV,
                deployment_names=None,
                rg_node_budget=20_000,
            )
        )
        assert outcome.outcome == "outage"
        assert ":" in outcome.failure  # type name travels with the message


class TestRunController:
    def test_record_shape(self):
        record = run_controller(
            media.build_app("n0", "n2"), fleet_net(), LEV, SPEC,
            compile_cache=CompileCache(max_entries=32),
        )
        assert record["format"] == 1
        assert len(record["fleet"]) == 2
        assert len(record["initial"]) == 2
        assert all(entry["deployed"] for entry in record["initial"])
        assert len(record["steps"]) == 3
        for step in record["steps"]:
            assert len(step["repairs"]) == 2
        summary = record["summary"]
        assert summary["repairs"] == 6
        assert summary["repairs"] == summary["outages"] + sum(
            1 for s in record["steps"] for r in s["repairs"] if not r["failed"]
        )

    def test_record_is_deterministic(self):
        args = (media.build_app("n0", "n2"), fleet_net(), LEV, SPEC)
        first = run_controller(*args, compile_cache=CompileCache(max_entries=32))
        second = run_controller(*args, compile_cache=CompileCache(max_entries=32))
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)

    def test_delta_and_full_records_identical(self):
        # A longer timeline than SPEC's: it repairs, redeploys and loses
        # members, and the patcher serves most repair compiles.
        spec = {"fleet": 3, "faults": {"seed": 13, "events": 8}, "rg_node_budget": 20_000}
        app, net = media.build_app("n0", "n2"), fleet_net()
        uncached = run_controller(app, net, LEV, spec, compile_cache=None)
        full = run_controller(
            app, net, LEV, spec, compile_cache=CompileCache(max_entries=32)
        )
        delta = run_controller(
            app, net, LEV, dict(spec, delta_replanning=True),
            compile_cache=CompileCache(max_entries=32),
        )
        assert strip_provenance(uncached) == strip_provenance(full)
        assert strip_provenance(full) == strip_provenance(delta)
        # The delta run served at least as many repairs warm.
        assert delta["summary"]["delta_hits"] >= full["summary"]["delta_hits"]

    def test_telemetry_counts_ttr_and_provenance(self):
        telemetry = Telemetry()
        record = run_controller(
            media.build_app("n0", "n2"), fleet_net(), LEV,
            dict(SPEC, delta_replanning=True),
            compile_cache=CompileCache(max_entries=32),
            telemetry=telemetry,
        )
        summary = record["summary"]
        ttr = telemetry.metrics.histogram("repair.ttr")
        assert ttr.count == summary["repairs"]
        hits = telemetry.metrics.counter("repair.delta.hit").value
        full = telemetry.metrics.counter("repair.delta.full").value
        assert hits == summary["delta_hits"]
        assert full == summary["delta_full"]

    def test_timings_mode_adds_ttr_fields(self):
        record = run_controller(
            media.build_app("n0", "n2"), fleet_net(), LEV, SPEC,
            include_timings=True,
            compile_cache=CompileCache(max_entries=32),
        )
        assert "ttr_ms_mean" in record["summary"]
        assert all(
            "ttr_ms" in r for s in record["steps"] for r in s["repairs"]
        )

    def test_fleet_parameter_overrides_spec(self):
        record = run_controller(
            media.build_app("n0", "n2"), fleet_net(), LEV, SPEC, fleet=1,
            compile_cache=CompileCache(max_entries=32),
        )
        assert len(record["fleet"]) == 1

    def test_inline_repairs_go_through_the_module_global(self, monkeypatch):
        """A ``(task, **kwargs)`` wrapper bound to ``controller.repair_member``
        sees every inline repair, in member order, called with keywords."""
        from repro.simulate import controller

        original = controller.repair_member
        calls = []

        def spy(task, **kwargs):
            calls.append(task.app.name)
            return original(task, **kwargs)

        monkeypatch.setattr(controller, "repair_member", spy)
        record = run_controller(
            media.build_app("n0", "n2"), fleet_net(), LEV, SPEC,
            compile_cache=CompileCache(max_entries=32),
        )
        fleet, events = len(record["fleet"]), record["summary"]["events"]
        assert len(calls) == fleet * (events + 1) == 8
        assert calls == record["fleet"] * (events + 1)


class TestControllerWorkers:
    def test_worker_fanout_matches_inline(self):
        spec = dict(SPEC, delta_replanning=True)
        app, net = media.build_app("n0", "n2"), fleet_net()
        inline = run_controller(
            app, net, LEV, spec, compile_cache=CompileCache(max_entries=32)
        )
        fanned = run_controller(app, net, LEV, spec, workers=2)
        assert strip_provenance(inline) == strip_provenance(fanned)


class TestReplanFlag:
    """``replan_from_scratch_on_outage`` governs redeploys after an
    outage only; the initial deploy always runs."""

    def test_initial_deploy_ignores_disabled_replanning(self):
        spec = dict(SPEC, replan_from_scratch_on_outage=False)
        record = run_controller(
            media.build_app("n0", "n2"), fleet_net(), LEV, spec,
            compile_cache=CompileCache(max_entries=32),
        )
        assert len(record["initial"]) == 2
        assert all(entry["deployed"] for entry in record["initial"])


def examples_instance():
    """The CLI smoke jobs' instance: examples/net.json + examples/app.spec."""
    spec_path = EXAMPLES / "app.spec"
    parsed = parse_spec_text(spec_path.read_text())
    app = AppSpec.build(
        name=str(spec_path),
        interfaces=parsed.interfaces,
        components=parsed.components,
        initial=[("Server", "n0")],
        goals=[("Client", "n1")],
    )
    leveling = Leveling({"M.ibw": LevelSpec((90.0, 100.0))}, name="cli")
    return app, load_network(str(EXAMPLES / "net.json")), leveling


class TestOneRepairPath:
    """The churn simulator and a one-member fleet repair through the same
    core, so they agree step for step."""

    @pytest.mark.parametrize("replan", [True, False])
    @pytest.mark.parametrize("seed", [7, 13])
    def test_simulator_matches_one_member_fleet(self, seed, replan):
        spec = json.loads((EXAMPLES / "campaign.json").read_text())
        del spec["injector"]  # transient retries are the simulator's alone
        spec["replan_from_scratch_on_outage"] = replan
        app, net, leveling = examples_instance()
        sim = run_campaign_run(
            app, net, leveling, spec, seed=seed,
            compile_cache=CompileCache(max_entries=32),
        )
        fleet = run_controller(
            app, net, leveling, spec, fleet=1, seed=seed,
            compile_cache=CompileCache(max_entries=32),
        )
        simulated = [
            (s.survived_actions, s.repair_actions, s.repair_cost, s.total_plan_cost, s.failed)
            for s in sim.steps
        ]
        controlled = [
            (r["survived"], r["repaired"], r["repair_cost"], r["total_cost"], r["failed"])
            for step in fleet["steps"]
            for r in step["repairs"]
        ]
        assert simulated and simulated == controlled
