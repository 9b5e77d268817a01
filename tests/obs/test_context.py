"""Cross-process trace context: propagation, stitching, clock rebase."""

import pickle
import time

from hypothesis import given, settings, strategies as st

from repro.obs import MetricsSnapshot, Telemetry, TraceContext, new_trace_id
from repro.obs.context import REMOTE_ID_BASE


def _worker_snapshot(context: TraceContext | None) -> tuple[Telemetry, MetricsSnapshot]:
    """Simulate one worker: run spans under a context, snapshot them."""
    worker = Telemetry(context=context)
    with worker.span("scenario", network="Tiny"):
        with worker.span("rg"):
            pass
    return worker, MetricsSnapshot.from_telemetry(worker)


class TestTraceContext:
    def test_pickles(self):
        ctx = TraceContext(trace_id=new_trace_id(), parent_span_id=3)
        clone = pickle.loads(pickle.dumps(ctx))
        assert clone == ctx

    def test_fresh_telemetry_owns_a_trace_id(self):
        a, b = Telemetry(), Telemetry()
        assert a.trace_id and b.trace_id and a.trace_id != b.trace_id

    def test_context_inherits_coordinator_trace_id(self):
        coordinator = Telemetry()
        with coordinator.span("fanout"):
            ctx = coordinator.current_context()
        assert ctx.trace_id == coordinator.trace_id
        worker = Telemetry(context=ctx)
        assert worker.trace_id == coordinator.trace_id

    def test_current_context_carries_open_span_id(self):
        telemetry = Telemetry()
        assert telemetry.current_context().parent_span_id is None
        with telemetry.span("fanout") as span:
            assert telemetry.current_context().parent_span_id == span.id


class TestStitchSnapshot:
    def test_worker_roots_parent_onto_dispatch_span(self):
        coordinator = Telemetry()
        with coordinator.span("table2.fanout") as dispatch:
            ctx = coordinator.current_context()
        _, snapshot = _worker_snapshot(ctx)
        grafted = coordinator.stitch_snapshot(snapshot, worker=1)
        assert [sp.name for sp in grafted] == ["scenario", "rg"]
        scenario, rg = grafted
        assert scenario.parent == dispatch.id
        # The child keeps its *remapped* worker-local parent.
        assert rg.parent == scenario.id
        assert scenario.worker == 1 and scenario.pid == snapshot.pid

    def test_remote_ids_disjoint_from_local_ids(self):
        coordinator = Telemetry()
        with coordinator.span("fanout"):
            ctx = coordinator.current_context()
        _, snapshot = _worker_snapshot(ctx)
        grafted = coordinator.stitch_snapshot(snapshot)
        local_ids = {sp.id for sp in coordinator.spans.spans}
        for sp in grafted:
            assert sp.id >= REMOTE_ID_BASE
            assert sp.id not in local_ids

    def test_foreign_trace_id_stitches_as_unparented_lane(self):
        coordinator = Telemetry()
        with coordinator.span("fanout"):
            pass
        # A snapshot from an unrelated trace (stale worker, wrong file):
        # spans still stitch, but never parent onto coordinator spans.
        _, snapshot = _worker_snapshot(TraceContext(trace_id=new_trace_id(), parent_span_id=0))
        grafted = coordinator.stitch_snapshot(snapshot)
        assert grafted[0].parent is None

    def test_timestamps_rebased_onto_coordinator_clock(self):
        coordinator = Telemetry()
        with coordinator.span("fanout") as dispatch:
            ctx = coordinator.current_context()
            worker, snapshot = _worker_snapshot(ctx)
        grafted = coordinator.stitch_snapshot(snapshot)
        # The worker ran while the dispatch span was open, so its rebased
        # start must land inside the dispatch window (generous slack for
        # clock granularity).
        assert dispatch.start_s - 0.05 <= grafted[0].start_s
        assert grafted[0].end_s <= (dispatch.end_s or time.perf_counter()) + 0.05

    def test_empty_snapshot_is_a_noop(self):
        coordinator = Telemetry()
        assert coordinator.stitch_snapshot(MetricsSnapshot()) == []
        assert coordinator.remote_spans == []

    def test_snapshot_without_metrics_telemetry(self):
        # from_telemetry(None) round-trips as an empty, stitchable snapshot.
        snapshot = MetricsSnapshot.from_telemetry(None)
        assert snapshot.spans == () and snapshot.trace_id == ""
        assert Telemetry().stitch_snapshot(snapshot) == []


class TestMetricsSnapshot:
    def test_round_trip_merges_into_registry(self):
        tele = Telemetry()
        tele.metrics.inc("cache.hit", 3)
        tele.metrics.observe("rg.f_value", 7.0)
        snap = pickle.loads(pickle.dumps(MetricsSnapshot.from_telemetry(tele)))
        other = Telemetry()
        snap.merge_into(other.metrics)
        assert other.metrics.counter("cache.hit").value == 3
        assert other.metrics.histogram("rg.f_value").count == 1

    def test_none_telemetry_is_empty(self):
        snap = MetricsSnapshot.from_telemetry(None)
        assert snap.records == ()
        snap.merge_into(None)  # no-op, no crash


@settings(max_examples=50, deadline=None)
@given(
    names=st.lists(
        st.text(alphabet="abcxyz.", min_size=1, max_size=12), min_size=0, max_size=5
    ),
    values=st.lists(st.integers(min_value=0, max_value=10**9), min_size=5, max_size=5),
)
def test_metrics_snapshot_round_trip(names, values):
    tele = Telemetry()
    for name, value in zip(names, values):
        tele.metrics.inc(f"c.{name}", value)
    snap = MetricsSnapshot.from_telemetry(tele)
    clone = pickle.loads(pickle.dumps(snap))
    other = Telemetry()
    clone.merge_into(other.metrics)
    for name, value in zip(names, values):
        # duplicate names accumulate in the source registry already
        assert other.metrics.counter(f"c.{name}").value == tele.metrics.counter(
            f"c.{name}"
        ).value
