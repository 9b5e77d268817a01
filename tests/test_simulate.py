"""Unit tests for the churn simulator."""

import pytest

from repro.domains import media
from repro.network import chain_network, ring_network
from repro.simulate import (
    LinkChange,
    LinkFailure,
    NodeChange,
    Simulation,
    apply_event,
    copy_network,
)

LEV = media.proportional_leveling((90, 100))


class TestEvents:
    def test_link_change(self):
        net = chain_network([(150, "LAN")])
        out = apply_event(net, LinkChange("n0", "n1", "lbw", 70.0))
        assert out.link("n0", "n1").capacity("lbw") == 70.0
        assert net.link("n0", "n1").capacity("lbw") == 150.0  # original untouched

    def test_node_change(self):
        net = chain_network([(150, "LAN")], cpu=30.0)
        out = apply_event(net, NodeChange("n0", "cpu", 5.0))
        assert out.node("n0").capacity("cpu") == 5.0

    def test_link_failure(self):
        net = ring_network(4)
        out = apply_event(net, LinkFailure("n0", "n1"))
        assert not out.has_link("n0", "n1")
        assert out.is_connected()  # the ring reroutes

    def test_unknown_element(self):
        from repro.network import NetworkError

        net = chain_network([(150, "LAN")])
        with pytest.raises(NetworkError):
            apply_event(net, LinkChange("n0", "zzz", "lbw", 1.0))

    def test_copy_independent(self):
        net = chain_network([(150, "LAN")])
        cp = copy_network(net)
        cp.node("n0").resources["cpu"] = 1.0
        assert net.node("n0").capacity("cpu") != 1.0


class TestSimulation:
    def test_quiet_timeline_no_repairs(self):
        net = chain_network([(150, "LAN"), (150, "LAN")], cpu=30.0)
        sim = Simulation(media.build_app("n0", "n2"), net, LEV)
        result = sim.run([LinkChange("n0", "n1", "lbw", 140.0)])  # still ample
        assert result.steps[0].repair_actions == 0
        assert result.total_repair_cost == 0.0

    def test_degradation_triggers_repair(self):
        net = chain_network([(150, "LAN"), (150, "LAN")], cpu=30.0)
        sim = Simulation(media.build_app("n0", "n2"), net, LEV)
        result = sim.run([LinkChange("n1", "n2", "lbw", 70.0)])
        step = result.steps[0]
        assert not step.failed
        assert step.repair_actions > 0  # the compression pipeline appears
        assert result.total_repair_cost > 0

    def test_partition_then_recovery(self):
        """Losing the only path is an outage; restoring capacity later
        lets the simulator redeploy from scratch."""
        net = chain_network([(150, "LAN"), (150, "LAN")], cpu=30.0)
        sim = Simulation(media.build_app("n0", "n2"), net, LEV)
        result = sim.run(
            [
                LinkChange("n1", "n2", "lbw", 10.0),  # below any useful stream
                LinkChange("n1", "n2", "lbw", 150.0),  # recovery
            ]
        )
        assert result.steps[0].failed
        assert not result.steps[1].failed
        assert result.outage_steps == 1

    def test_ring_survives_link_failure(self):
        """On a ring, a failed link reroutes rather than failing."""
        net = ring_network(4, cpu=30.0, link_bw=150.0)
        sim = Simulation(media.build_app("n0", "n2"), net, LEV)
        result = sim.run([LinkFailure("n0", "n1")])
        step = result.steps[0]
        assert not step.failed

    def test_describe(self):
        net = chain_network([(150, "LAN"), (150, "LAN")], cpu=30.0)
        sim = Simulation(media.build_app("n0", "n2"), net, LEV)
        result = sim.run([LinkChange("n1", "n2", "lbw", 70.0)])
        text = result.describe()
        assert "initial deployment" in text
        assert "total repair cost" in text


class TestOutagePaths:
    """Recovery semantics around unrepairable steps."""

    OUTAGE = LinkChange("n1", "n2", "lbw", 10.0)  # below any useful stream
    RESTORE = LinkChange("n1", "n2", "lbw", 150.0)
    QUIET = NodeChange("n0", "cpu", 29.0)  # harmless churn during the outage

    def _sim(self, **kwargs):
        net = chain_network([(150, "LAN"), (150, "LAN")], cpu=30.0)
        return Simulation(media.build_app("n0", "n2"), net, LEV, **kwargs)

    def test_replan_from_scratch_recovers_after_restoration(self):
        sim = self._sim(replan_from_scratch_on_outage=True)
        result = sim.run([self.OUTAGE, self.QUIET, self.RESTORE, self.QUIET])
        assert [s.failed for s in result.steps] == [True, True, False, False]
        recovery = result.steps[2]
        assert recovery.repair_actions > 0  # a full redeployment, not a delta
        assert recovery.survived_actions == 0
        assert result.steps[3].repair_actions == 0  # steady again afterwards
        assert result.availability == pytest.approx(0.5)

    def test_no_replan_marks_every_subsequent_step_failed(self):
        sim = self._sim(replan_from_scratch_on_outage=False)
        result = sim.run([self.OUTAGE, self.QUIET, self.RESTORE, self.QUIET])
        assert all(s.failed for s in result.steps)
        assert result.outage_steps == 4
        # Steps after the first fail because replanning is disabled, and
        # the recorded reason says so.
        assert "replanning disabled" in result.steps[2].failure

    def test_failure_records_message_not_just_type(self):
        sim = self._sim()
        result = sim.run([self.OUTAGE])
        step = result.steps[0]
        assert step.failed
        head, _, detail = step.failure.partition(":")
        assert head in ("Unsolvable", "ResourceInfeasible", "ValueError")
        assert detail.strip()  # str(exc) travels with the type name

    def test_infeasible_initial_deployment_is_recorded_not_raised(self):
        net = chain_network([(10, "LAN"), (10, "LAN")], cpu=30.0)  # starved
        sim = Simulation(media.build_app("n0", "n2"), net, LEV)
        result = sim.run([self.QUIET])
        assert result.initial_deployment is None
        assert result.initial_failure
        assert ":" in result.initial_failure
        assert result.steps == []
        assert result.availability == 0.0
        assert "FAILED" in result.describe()


class TestTotalPlanCost:
    """Regression: repair steps must report the stitched deployment's
    exact cost, not just the (discounted) repair delta."""

    def _sim(self, **kwargs):
        net = chain_network([(150, "LAN"), (150, "LAN")], cpu=30.0)
        return Simulation(media.build_app("n0", "n2"), net, LEV, **kwargs)

    def test_repair_step_total_includes_surviving_prefix(self):
        sim = self._sim()
        result = sim.run([LinkChange("n1", "n2", "lbw", 70.0)])
        step = result.steps[0]
        assert not step.failed
        assert step.survived_actions > 0
        assert step.repair_actions > 0
        # The stitched deployment costs strictly more than the delta
        # alone (the surviving prefix's cost was previously dropped).
        assert step.total_plan_cost > step.repair_cost

    def test_quiet_step_total_is_initial_plan_cost(self):
        sim = self._sim()
        result = sim.run([NodeChange("n0", "cpu", 29.0)])
        step = result.steps[0]
        assert step.repair_actions == 0
        assert step.total_plan_cost == pytest.approx(result.initial_cost)

    def test_from_scratch_step_total_is_fresh_plan_cost(self):
        sim = self._sim(replan_from_scratch_on_outage=True)
        result = sim.run(
            [
                LinkChange("n1", "n2", "lbw", 10.0),  # outage
                LinkChange("n1", "n2", "lbw", 150.0),  # recovery: full replan
            ]
        )
        recovery = result.steps[1]
        assert recovery.survived_actions == 0
        assert recovery.total_plan_cost == pytest.approx(recovery.repair_cost)


class TestDeltaReplanning:
    """delta_replanning is semantically transparent: identical records,
    different compile path."""

    EVENTS = [
        LinkChange("n1", "n2", "lbw", 95.0),
        NodeChange("n1", "cpu", 25.0),
        LinkChange("n1", "n2", "lbw", 150.0),
    ]

    def _run(self, delta: bool) -> dict:
        from repro.parallel import CompileCache

        net = chain_network([(150, "LAN"), (150, "LAN")], cpu=30.0)
        cache = CompileCache(max_entries=32)
        sim = Simulation(
            media.build_app("n0", "n2"),
            net,
            LEV,
            compile_cache=cache,
            delta_replanning=delta,
        )
        record = sim.run(list(self.EVENTS)).to_dict()
        record["_delta_hits"] = cache.delta_hits
        return record

    def test_records_identical_with_and_without_delta(self):
        off = self._run(delta=False)
        on = self._run(delta=True)
        hits = on.pop("_delta_hits")
        off.pop("_delta_hits")
        assert on == off
        assert hits > 0  # the delta path actually patched something
