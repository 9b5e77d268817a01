"""Unified planner observability: spans, metrics, and search traces.

Zero-dependency, off-by-default telemetry for the three planner phases
and the experiment harness (see docs/OBSERVABILITY.md):

* :class:`Telemetry` — the facade threaded through the planner via
  ``PlannerConfig(telemetry=...)``: hierarchical :class:`Span` timings, a
  :class:`MetricsRegistry` of counters/gauges/histograms, and the per-run
  bounded :class:`SearchTrace`.
* :func:`timed` — the one clock: a detached :class:`Span`, recorded
  nowhere.  :func:`maybe_span` falls back to it when telemetry is off,
  so every duration the planner reports is a span's duration.
* :func:`export_trace` / :func:`export_jsonl` / :func:`export_chrome` —
  file exporters (JSONL event stream; Chrome trace-event JSON for
  Perfetto), surfaced as ``repro plan --trace-out``.
* :func:`load_trace` / :func:`summarize_trace` — read an exported file
  back and render the Figs. 7–8 style account (``repro trace summarize``).
* :class:`TraceContext` / :class:`MetricsSnapshot` / :func:`stitch_snapshot`
  — cross-process trace propagation: worker metrics and spans ship home
  in a metrics snapshot, and the spans stitch under the dispatching
  coordinator span as per-pid :class:`Span` lanes.
* :class:`StreamAggregator` / :class:`LiveMonitor` — live worker
  telemetry frames (``--live``) with stalled-worker heartbeat detection.
* :class:`PhaseProfiler` / :func:`capture_profile` — opt-in cProfile
  capture per planner phase or per worker task (``--profile-out``).
"""

from .context import (
    MetricsSnapshot,
    TraceContext,
    new_trace_id,
    spans_payload,
    stitch_snapshot,
)
from .export import (
    CHROME_FORMAT,
    JSONL_FORMAT,
    export_chrome,
    export_jsonl,
    export_trace,
    render_phase_report,
)
from .live import LiveMonitor
from .metrics import DEFAULT_BOUNDS, Counter, Gauge, Histogram, MetricsRegistry
from .profile import (
    PhaseProfiler,
    capture_profile,
    merge_profile_blobs,
    profile_blob,
    write_pstats,
)
from .span import Span, SpanRecorder, timed
from .stream import (
    DEFAULT_STREAM_INTERVAL_S,
    FrameSender,
    StreamAggregator,
    WorkerView,
    make_frame,
    task_label,
)
from .summarize import TraceFile, TraceFileError, load_trace, summarize_trace
from .telemetry import Telemetry, maybe_span
from .trace import SearchTrace, TraceEvent

__all__ = [
    "Telemetry",
    "maybe_span",
    "timed",
    "Span",
    "SpanRecorder",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BOUNDS",
    "SearchTrace",
    "TraceEvent",
    "TraceContext",
    "MetricsSnapshot",
    "new_trace_id",
    "spans_payload",
    "stitch_snapshot",
    "DEFAULT_STREAM_INTERVAL_S",
    "task_label",
    "make_frame",
    "FrameSender",
    "WorkerView",
    "StreamAggregator",
    "LiveMonitor",
    "PhaseProfiler",
    "capture_profile",
    "profile_blob",
    "merge_profile_blobs",
    "write_pstats",
    "JSONL_FORMAT",
    "CHROME_FORMAT",
    "export_jsonl",
    "export_chrome",
    "export_trace",
    "render_phase_report",
    "TraceFile",
    "TraceFileError",
    "load_trace",
    "summarize_trace",
]
