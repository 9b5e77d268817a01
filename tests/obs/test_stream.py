"""Live telemetry streaming: frames, aggregation, the --live view."""

import io
import multiprocessing as mp
import time

from repro.obs import (
    FrameSender,
    LiveMonitor,
    MetricsRegistry,
    StreamAggregator,
    MetricsSnapshot,
    make_frame,
    task_label,
)
from repro.parallel import CampaignTask, CellTask, RepairTask


class TestTaskLabel:
    def test_cell_task(self):
        task = CellTask(
            network="Tiny", scenario="B", source_bw=1.0, demand=1.0, rg_node_budget=10
        )
        assert task_label(task) == "Tiny/B"

    def test_campaign_task(self):
        task = CampaignTask(
            app=None, network=None, leveling=None, spec={}, seed=7
        )
        assert task_label(task) == "seed=7"

    def test_repair_task_uses_app_name(self):
        class App:
            name = "media-2"

        task = RepairTask(
            app=App(), network=None, leveling=None, deployment_names=None
        )
        assert task_label(task) == "media-2"

    def test_fallback_is_type_name(self):
        assert task_label(object()) == "object"


class TestFrameSender:
    def test_frames_then_heartbeats_over_a_real_pipe(self):
        parent, child = mp.Pipe()
        sender = FrameSender(child, interval_s=0.02, total=2)
        try:
            sender.task_start(0, object())
            sender.task_end(0, True, None)
            deadline = time.monotonic() + 2.0
            seen = []
            while time.monotonic() < deadline and len(seen) < 4:
                if parent.poll(0.1):
                    tag, frame = parent.recv()
                    assert tag == "frame"
                    seen.append(frame)
            kinds = [f["kind"] for f in seen]
            assert kinds[0] == "task_start"
            assert "task_end" in kinds
            assert "heartbeat" in kinds  # the background thread fired
            # seq is strictly monotone across threads (lock-protected).
            assert [f["seq"] for f in seen] == sorted(f["seq"] for f in seen)
        finally:
            sender.close()
            child.close()
            parent.close()

    def test_close_stops_the_heartbeat_thread(self):
        parent, child = mp.Pipe()
        sender = FrameSender(child, interval_s=0.01, total=1)
        sender.close()
        while parent.poll(0.05):  # drain anything sent before close
            parent.recv()
        assert not parent.poll(0.1)  # silence after close
        child.close()
        parent.close()

    def test_broken_pipe_disables_stream_silently(self):
        parent, child = mp.Pipe()
        sender = FrameSender(child, interval_s=10.0, total=1)
        parent.close()
        sender.task_start(0, object())  # first send may hit the buffer
        sender.task_end(0, True, None)
        sender.task_end(0, True, None)
        assert sender._broken or True  # the point: no exception escaped
        sender.close()
        child.close()

    def test_task_end_carries_result_metric_records(self):
        parent, child = mp.Pipe()
        sender = FrameSender(child, interval_s=10.0, total=1)
        registry = MetricsRegistry()
        registry.inc("cache.hit", 2)

        class Result:
            metrics = MetricsSnapshot.from_registry(registry)

        sender.task_end(0, True, Result())
        _tag, frame = parent.recv()
        assert frame["kind"] == "task_end" and frame["ok"] is True
        assert frame["metrics"][0]["name"] == "cache.hit"
        sender.close()
        child.close()
        parent.close()


class TestStreamAggregator:
    def test_folds_progress_and_live_metrics(self):
        agg = StreamAggregator()
        agg.on_frame(0, make_frame("task_start", task=0, label="Tiny/B", done=0, total=2))
        registry = MetricsRegistry()
        registry.inc("cache.hit", 3)
        registry.inc("cache.miss", 1)
        registry.observe("repair.ttr", 10.0)
        agg.on_frame(
            0,
            make_frame(
                "task_end", task=0, label="Tiny/B", done=1, total=2,
                ok=True, metrics=list(registry.snapshot()),
            ),
        )
        assert agg.tasks_done == 1 and agg.tasks_total == 2
        assert agg.cache_hit_rate() == 0.75
        assert agg.repair_ttr_ms() == 10.0
        assert agg.eta_s() is not None

    def test_heartbeat_missed_counts_and_resets(self):
        agg = StreamAggregator()
        missed = {"kind": "heartbeat_missed", "pid": 0, "seq": 0, "ts_s": 0.0,
                  "task": None, "label": "", "done": 0, "total": 0}
        agg.on_frame(1, missed)
        agg.on_frame(1, missed)
        assert agg.workers[1].missed == 2
        assert agg.heartbeat_missed == 2
        agg.on_frame(1, make_frame("heartbeat", done=1, total=3))
        assert agg.workers[1].missed == 0  # any real frame clears strikes
        assert agg.heartbeat_missed == 2  # the counter remembers

    def test_heartbeat_recovered_clears_stall_and_counts(self):
        agg = StreamAggregator()
        missed = {"kind": "heartbeat_missed", "pid": 9, "seq": 0, "ts_s": 0.0,
                  "task": None, "label": "", "done": 0, "total": 0}
        agg.on_frame(1, missed)
        agg.on_frame(1, missed)
        assert agg.workers[1].missed == 2
        recovered = dict(missed, kind="heartbeat_recovered")
        agg.on_frame(1, recovered)
        assert agg.workers[1].missed == 0
        assert agg.live.get("pool.heartbeat.recovered").value == 1
        assert agg.heartbeat_missed == 2  # history survives recovery

    def test_worker_respawned_resets_liveness_keeps_progress(self):
        agg = StreamAggregator()
        agg.on_frame(0, make_frame("task_start", task=3, label="seed=47",
                                   done=1, total=4))
        missed = {"kind": "heartbeat_missed", "pid": 9, "seq": 0, "ts_s": 0.0,
                  "task": None, "label": "", "done": 0, "total": 0}
        agg.on_frame(0, missed)
        respawned = dict(missed, kind="worker_respawned")
        agg.on_frame(0, respawned)
        view = agg.workers[0]
        assert view.missed == 0 and view.task is None and view.label == ""
        assert view.done == 1 and view.total == 4  # progress survives
        assert agg.respawned == 1

    def test_retry_and_quarantine_frames_count_without_progress_noise(self):
        agg = StreamAggregator()
        agg.on_frame(0, make_frame("task_start", task=0, label="seed=11",
                                   done=0, total=2))
        base = {"pid": 9, "seq": 0, "ts_s": 0.0, "task": 5, "label": "seed=99",
                "done": 0, "total": 0}
        agg.on_frame(0, dict(base, kind="task_retried"))
        agg.on_frame(0, dict(base, kind="task_quarantined"))
        assert agg.retried == 1 and agg.quarantined == 1
        # Supervision frames are bookkeeping, not progress: the worker's
        # current-task view is untouched.
        assert agg.workers[0].label == "seed=11"

    def test_live_registry_is_display_only(self):
        # The aggregator owns its registry — folding frames must never
        # reach into the run's own telemetry (that merge is task-ordered).
        agg = StreamAggregator()
        registry = MetricsRegistry()
        registry.inc("cache.hit")
        agg.on_frame(0, make_frame("task_end", done=1, total=1, ok=True,
                                   metrics=list(registry.snapshot())))
        assert agg.live.get("cache.hit").value == 1
        assert registry.get("cache.hit").value == 1  # untouched


class TestLiveMonitor:
    def test_nontty_output_is_one_line_per_paint(self):
        out = io.StringIO()
        monitor = LiveMonitor(out=out)
        monitor.on_frame(0, make_frame("task_start", task=0, label="Tiny/B",
                                       done=0, total=4))
        monitor.finish()
        text = out.getvalue()
        assert "live:" in text
        assert "\x1b[" not in text  # no ANSI on a non-TTY

    def test_render_has_one_row_per_worker_and_stall_marker(self):
        monitor = LiveMonitor(out=io.StringIO())
        monitor.aggregator.on_frame(0, make_frame("task_start", task=0,
                                                  label="Tiny/B", done=0, total=2))
        missed = {"kind": "heartbeat_missed", "pid": 0, "seq": 0, "ts_s": 0.0,
                  "task": None, "label": "", "done": 0, "total": 0}
        monitor.aggregator.on_frame(1, missed)
        text = monitor.render()
        lines = text.splitlines()
        assert lines[0].startswith("live:")
        assert any("w0" in line and "Tiny/B" in line for line in lines)
        assert any("w1" in line and "STALLED" in line for line in lines)

    def test_headline_reports_supervision_events(self):
        monitor = LiveMonitor(out=io.StringIO())
        base = {"pid": 9, "seq": 0, "ts_s": 0.0, "task": None, "label": "",
                "done": 0, "total": 0}
        monitor.aggregator.on_frame(0, dict(base, kind="worker_respawned"))
        monitor.aggregator.on_frame(0, dict(base, kind="task_retried"))
        monitor.aggregator.on_frame(0, dict(base, kind="task_quarantined"))
        headline = monitor.headline()
        assert "workers respawned 1" in headline
        assert "tasks retried 1" in headline
        assert "tasks quarantined 1" in headline

    def test_stall_row_clears_after_recovery_frame(self):
        monitor = LiveMonitor(out=io.StringIO())
        base = {"pid": 9, "seq": 0, "ts_s": 0.0, "task": None, "label": "",
                "done": 0, "total": 0}
        monitor.aggregator.on_frame(1, dict(base, kind="heartbeat_missed"))
        assert any("STALLED" in line for line in monitor.render().splitlines())
        monitor.aggregator.on_frame(1, dict(base, kind="heartbeat_recovered"))
        assert not any(
            "STALLED" in line for line in monitor.render().splitlines()
        )
