"""Property tests: metric snapshot merging is order-independent.

The parallel drivers merge worker snapshots "in task order" for
determinism — these properties pin down *why* that is sufficient:
counters and histograms are commutative folds (any merge order yields
the same registry), and gauges are last-write-wins (order matters, which
is exactly why the drivers fix the order).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs import MetricsRegistry, MetricsSnapshot, Telemetry

names = st.sampled_from(["cache.hit", "cache.miss", "rg.prune", "pool.tasks"])
hist_names = st.sampled_from(["repair.ttr", "rg.f_value"])
values = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)


@st.composite
def snapshots(draw):
    """One worker's snapshot: counters + histogram observations."""
    registry = MetricsRegistry()
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        registry.inc(draw(names), draw(st.integers(min_value=1, max_value=10)))
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        registry.observe(draw(hist_names), draw(values))
    return MetricsSnapshot.from_registry(registry)


def _merged(snaps) -> dict:
    registry = MetricsRegistry()
    for snap in snaps:
        snap.merge_into(registry)
    return {record["name"]: record for record in registry.snapshot()}


def _assert_equivalent(a: dict, b: dict) -> None:
    """Equal up to float-summation rounding (addition isn't associative)."""
    assert set(a) == set(b)
    for key in a:
        if key == "sum":
            assert a[key] == pytest.approx(b[key], rel=1e-9, abs=1e-9)
        elif key == "buckets":
            assert list(map(tuple, a[key])) == list(map(tuple, b[key]))
        else:
            assert a[key] == b[key], key


class TestPermutationInvariance:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(snapshots(), min_size=0, max_size=5), st.randoms())
    def test_counters_and_histograms_commute(self, snaps, rng):
        shuffled = list(snaps)
        rng.shuffle(shuffled)
        a = _merged(snaps)
        b = _merged(shuffled)
        assert set(a) == set(b)
        for name in a:
            _assert_equivalent(a[name], b[name])

    @settings(max_examples=30, deadline=None)
    @given(st.lists(snapshots(), min_size=0, max_size=4))
    def test_merge_snapshot_matches_merge_into(self, snaps):
        # MetricsRegistry.merge_snapshot (record-level, used by the live
        # aggregator) and MetricsSnapshot.merge_into (the deterministic
        # post-run walk) are the same fold.
        via_into = _merged(snaps)
        registry = MetricsRegistry()
        for snap in snaps:
            registry.merge_snapshot(list(snap.records))
        via_records = {r["name"]: r for r in registry.snapshot()}
        assert via_into == via_records


class TestGaugeSemantics:
    def test_gauges_are_last_write_wins(self):
        first, second = MetricsRegistry(), MetricsRegistry()
        first.set_gauge("planner.rg_nodes", 10)
        second.set_gauge("planner.rg_nodes", 99)
        snap_a = MetricsSnapshot.from_registry(first)
        snap_b = MetricsSnapshot.from_registry(second)

        ab = _merged([snap_a, snap_b])
        ba = _merged([snap_b, snap_a])
        assert ab["planner.rg_nodes"]["value"] == 99
        assert ba["planner.rg_nodes"]["value"] == 10
        # NOT commutative — which is why drivers merge in task order.


class TestTelemetryRoundTrip:
    def test_from_telemetry_snapshot_merges_like_the_registry(self):
        telemetry = Telemetry()
        telemetry.metrics.inc("cache.hit", 3)
        telemetry.metrics.observe("repair.ttr", 12.5)
        snap = MetricsSnapshot.from_telemetry(telemetry)
        merged = _merged([snap, snap])
        assert merged["cache.hit"]["value"] == 6
        assert merged["repair.ttr"]["count"] == 2
