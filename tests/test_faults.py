"""Unit tests for stochastic fault injection (repro.simulate.faults)."""

import json

import pytest

from repro.domains import media
from repro.network import chain_network, ring_network
from repro.simulate import (
    FaultInjector,
    FaultModel,
    LinkFailure,
    LinkRecovery,
    RetryPolicy,
    Simulation,
    TransientFault,
    apply_event,
    event_from_dict,
    event_to_dict,
    generate_timeline,
)

LEV = media.proportional_leveling((90, 100))


class TestTimelineGeneration:
    def test_seeded_timelines_are_identical(self):
        net = ring_network(5, cpu=30.0, link_bw=150.0)
        model = FaultModel(seed=3, events=15)
        assert generate_timeline(net, model) == generate_timeline(net, model)

    def test_different_seeds_differ(self):
        net = ring_network(5, cpu=30.0, link_bw=150.0)
        a = generate_timeline(net, FaultModel(seed=1, events=15))
        b = generate_timeline(net, FaultModel(seed=2, events=15))
        assert a != b

    @pytest.mark.parametrize("seed", range(8))
    def test_timelines_replay_cleanly(self, seed):
        """No event may ever reference a removed link or double-recover."""
        net = ring_network(6, cpu=30.0, link_bw=150.0)
        current = net
        for event in generate_timeline(net, FaultModel(seed=seed, events=30)):
            current = apply_event(current, event)  # NetworkError = generator bug

    def test_transient_failures_get_scheduled_recoveries(self):
        net = ring_network(6, cpu=30.0, link_bw=150.0)
        timeline = generate_timeline(
            net, FaultModel(seed=0, events=40, p_link_fail=1.0, p_transient=1.0)
        )
        fails = [e for e in timeline if isinstance(e, LinkFailure)]
        recoveries = [e for e in timeline if isinstance(e, LinkRecovery)]
        assert fails and recoveries
        # Every recovery revives a link a prior failure took down.
        failed_keys = {tuple(sorted((e.a, e.b))) for e in fails}
        for r in recoveries:
            assert tuple(sorted((r.a, r.b))) in failed_keys

    def test_recovery_restores_original_resources(self):
        net = ring_network(4, cpu=30.0, link_bw=150.0)
        timeline = generate_timeline(
            net, FaultModel(seed=0, events=30, p_link_fail=1.0, p_transient=1.0)
        )
        current = net
        for event in timeline:
            current = apply_event(current, event)
            if isinstance(event, LinkRecovery):
                assert current.link(event.a, event.b).capacity("lbw") == 150.0

    def test_model_dict_roundtrip(self):
        model = FaultModel(seed=9, events=5, jitter_range=(0.5, 0.8), recovery_delay=(2, 3))
        assert FaultModel.from_dict(model.to_dict()) == model


class TestEventSerialization:
    @pytest.mark.parametrize("seed", range(4))
    def test_roundtrip_generated_timeline(self, seed):
        net = ring_network(5, cpu=30.0, link_bw=150.0)
        timeline = generate_timeline(net, FaultModel(seed=seed, events=20))
        assert [event_from_dict(event_to_dict(e)) for e in timeline] == timeline

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            event_from_dict({"kind": "meteor-strike"})

    def test_missing_field_rejected(self):
        with pytest.raises(ValueError):
            event_from_dict({"kind": "link-failure", "a": "n0"})


class TestFaultInjector:
    def test_same_seed_same_injections(self):
        a, b = FaultInjector(rate=0.5, seed=4), FaultInjector(rate=0.5, seed=4)
        assert [a.failures_for(i) for i in range(50)] == [
            b.failures_for(i) for i in range(50)
        ]

    def test_attempts_beyond_plan_succeed(self):
        inj = FaultInjector(rate=1.0, max_failures=2, seed=0)
        step = 0
        k = inj.failures_for(step)
        assert 1 <= k <= 2
        for attempt in range(1, k + 1):
            with pytest.raises(TransientFault):
                inj.attempt(step, attempt)
        inj.attempt(step, k + 1)  # must not raise

    def test_zero_rate_never_injects(self):
        inj = FaultInjector(rate=0.0, seed=0)
        assert all(inj.failures_for(i) == 0 for i in range(100))

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            FaultInjector(rate=1.5)


class TestRetryPolicy:
    def test_backoff_is_exponential(self):
        policy = RetryPolicy(base_backoff_s=0.1, multiplier=2.0)
        assert policy.backoff_s(1) == pytest.approx(0.1)
        assert policy.backoff_s(2) == pytest.approx(0.2)
        assert policy.backoff_s(3) == pytest.approx(0.4)


class TestFaultCampaign:
    """The acceptance campaign: 20 seeded events with injected transient
    failures, retried through with backoff, byte-identical across runs."""

    def _run(self):
        net = ring_network(4, cpu=30.0, link_bw=150.0)
        app = media.build_app("n0", "n2")
        model = FaultModel(seed=5, events=20, jitter_range=(0.6, 0.9), p_transient=0.9)
        sim = Simulation(
            app,
            net,
            LEV,
            fault_injector=FaultInjector(rate=0.5, max_failures=2, seed=13),
            retry_policy=RetryPolicy(max_attempts=4, base_backoff_s=0.1),
            rg_node_budget=20_000,
        )
        return sim.run(generate_timeline(net, model))

    def test_campaign_completes_with_backoff_retries(self):
        result = self._run()
        assert len(result.steps) == 20
        assert result.backoff_retries >= 1  # >=1 retry that went through
        assert result.total_backoff_s > 0
        retried_ok = [
            s for s in result.steps if s.transient_failures and not s.failed
        ]
        assert retried_ok, "expected at least one step recovered via retry"
        assert all(s.attempts == s.transient_failures + 1 for s in retried_ok)

    def test_campaign_is_deterministic(self):
        a = json.dumps(self._run().to_dict(), sort_keys=True)
        b = json.dumps(self._run().to_dict(), sort_keys=True)
        assert a == b

    def test_timings_are_recorded_but_excluded_from_record(self):
        result = self._run()
        assert all(s.wall_ms > 0 for s in result.steps)
        assert result.wall_ms > 0
        record = json.dumps(result.to_dict())
        assert "wall_ms" not in record
        assert "wall_ms" in json.dumps(result.to_dict(include_timings=True))

    def test_availability_accounting(self):
        result = self._run()
        expected = 1.0 - result.outage_steps / len(result.steps)
        assert result.availability == pytest.approx(expected)
        assert "availability" in result.describe()

    def test_retry_exhaustion_marks_outage(self):
        net = chain_network([(150, "LAN"), (150, "LAN")], cpu=30.0)
        app = media.build_app("n0", "n2")
        injector = FaultInjector(rate=1.0, max_failures=5, seed=1)
        # Pin the draw: dooming every policy attempt makes the step an outage.
        injector._plan[0] = 5
        sim = Simulation(
            app,
            net,
            LEV,
            fault_injector=injector,
            retry_policy=RetryPolicy(max_attempts=2),
        )
        from repro.simulate import LinkChange

        result = sim.run([LinkChange("n0", "n1", "lbw", 140.0)])
        step = result.steps[0]
        assert step.failed
        assert step.failure.startswith("TransientFault")
        assert step.attempts == 2
        assert step.transient_failures == 2
        assert result.backoff_retries == 0  # none of the retries went through
