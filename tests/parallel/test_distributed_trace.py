"""Distributed tracing end-to-end: worker spans stitch into one trace.

The acceptance criterion for the observability PR: a multi-worker sweep
with tracing enabled produces ONE trace with a coordinator lane plus a
lane per worker pid, worker roots parented onto the coordinator's
dispatch span — and the parenting survives an export/load round-trip in
both formats.  Streaming frames ride the same pipes; telemetry stays
strictly opt-in (no trace context, no frames when disabled).
"""

import json
import os
import signal
import time

import pytest

from repro.experiments.harness import run_table2
from repro.obs import StreamAggregator, Telemetry, export_trace, load_trace
from repro.obs.context import REMOTE_ID_BASE
from repro.parallel import CellTask, Supervisor, run_cell_task
from repro.parallel.workers import _in_worker, _jobs

pytestmark = pytest.mark.slow  # spawns real worker processes


@pytest.fixture(scope="module")
def traced_sweep():
    """One 2-worker Tiny sweep with telemetry; shared across assertions."""
    telemetry = Telemetry()
    rows = run_table2(("Tiny",), ("B", "C", "D", "E"), workers=2, telemetry=telemetry)
    return telemetry, rows


def _dispatch_span(telemetry):
    return next(sp for sp in telemetry.spans.spans if sp.name == "table2.fanout")


class TestStitchedSweep:
    def test_worker_spans_land_in_the_coordinator_trace(self, traced_sweep):
        telemetry, rows = traced_sweep
        assert len(rows) == 4
        assert telemetry.remote_spans, "workers shipped no spans home"
        dispatch = _dispatch_span(telemetry)
        roots = [sp for sp in telemetry.remote_spans if sp.parent == dispatch.id]
        assert roots, "no worker root parented onto the dispatch span"
        # Remote ids never collide with coordinator list-index ids.
        local_ids = {sp.id for sp in telemetry.spans.spans}
        for sp in telemetry.remote_spans:
            assert sp.id >= REMOTE_ID_BASE and sp.id not in local_ids
            assert sp.pid != os.getpid()

    def test_worker_lanes_cover_real_child_pids(self, traced_sweep):
        telemetry, _ = traced_sweep
        pids = {sp.pid for sp in telemetry.remote_spans}
        assert 1 <= len(pids) <= 2  # 2 workers requested; sharding may balance
        assert os.getpid() not in pids

    def test_chrome_round_trip_preserves_lanes_and_parenting(
        self, traced_sweep, tmp_path
    ):
        telemetry, _ = traced_sweep
        path = tmp_path / "trace.json"
        export_trace(telemetry, str(path), fmt="chrome")
        doc = json.loads(path.read_text())
        pids = {ev["pid"] for ev in doc["traceEvents"] if ev["ph"] == "X"}
        assert 1 in pids and len(pids) >= 2  # coordinator lane + worker lane(s)

        spans = load_trace(str(path)).spans
        by_id = {sp["id"]: sp for sp in spans}
        dispatch = next(sp for sp in spans if sp["name"] == "table2.fanout")
        worker_roots = [
            sp
            for sp in spans
            if sp.get("pid") not in (None, 1) and sp["parent"] == dispatch["id"]
        ]
        assert worker_roots, "round-trip lost worker->dispatch parenting"
        for sp in worker_roots:
            assert by_id[sp["parent"]]["name"] == "table2.fanout"

    def test_jsonl_round_trip_preserves_lanes_and_parenting(
        self, traced_sweep, tmp_path
    ):
        telemetry, _ = traced_sweep
        path = tmp_path / "trace.jsonl"
        export_trace(telemetry, str(path), fmt="jsonl")
        header = json.loads(path.read_text().splitlines()[0])
        assert header["trace_id"] == telemetry.trace_id

        spans = load_trace(str(path)).spans
        dispatch = next(sp for sp in spans if sp["name"] == "table2.fanout")
        worker_roots = [
            sp
            for sp in spans
            if sp.get("pid") is not None and sp["parent"] == dispatch["id"]
        ]
        assert worker_roots
        # Worker spans carry their lane pid; coordinator spans stay pid-less.
        assert "pid" not in dispatch

    def test_rows_identical_with_and_without_telemetry(self, traced_sweep):
        _, traced_rows = traced_sweep
        plain = run_table2(("Tiny",), ("B", "C", "D", "E"), workers=2)
        assert [r.to_record() for r in plain] == [
            r.to_record() for r in traced_rows
        ]


class TestOptIn:
    def test_no_telemetry_means_no_trace_context_on_tasks(self):
        task = CellTask(
            network="Tiny", scenario="B", source_bw=1.0, demand=1.0,
            rg_node_budget=10_000,
        )
        (job,) = _jobs([task], telemetry=None, compile_cache=None)
        assert job.trace is None and job.with_metrics is False
        done = _in_worker(run_cell_task, job)
        assert done.metrics.spans == () and done.metrics.trace_id == ""


def _sleepy(seconds: float) -> float:
    time.sleep(seconds)
    return seconds


def _freeze(_payload) -> str:
    # Suspend the whole process (heartbeat thread included) — the only
    # way a healthy worker goes silent.  The coordinator's stall window
    # expires, it synthesizes heartbeat_missed, and the test's on_frame
    # callback thaws us with SIGCONT.
    os.kill(os.getpid(), signal.SIGSTOP)
    return "thawed"


class TestPoolStreaming:
    def test_frames_arrive_and_fold(self):
        agg = StreamAggregator()
        with Supervisor(2) as sup:
            results = sup.run(
                _sleepy, [0.01, 0.01, 0.01, 0.01],
                on_frame=agg.on_frame, stream_interval_s=0.05,
            ).raise_on_failure()
        assert results == [0.01] * 4
        assert agg.tasks_done == 4
        assert len(agg.workers) >= 1  # at least one worker reported

    def test_no_on_frame_means_no_streaming(self):
        with Supervisor(2) as sup:
            results = sup.run(_sleepy, [0.0, 0.0]).raise_on_failure()
        assert results == [0.0, 0.0]

    def test_stalled_worker_synthesizes_heartbeat_missed(self):
        agg = StreamAggregator()
        frames = []

        def on_frame(worker_id, frame):
            frames.append(frame)
            agg.on_frame(worker_id, frame)
            if frame["kind"] == "heartbeat_missed" and frame["pid"]:
                os.kill(frame["pid"], signal.SIGCONT)

        with Supervisor(1) as sup:
            results = sup.run(
                _freeze, [None], on_frame=on_frame, stream_interval_s=0.05
            ).raise_on_failure()
        assert results == ["thawed"]
        assert any(f["kind"] == "heartbeat_missed" for f in frames)
        assert agg.heartbeat_missed >= 1
