"""The telemetry facade threaded through the planner.

One :class:`Telemetry` object bundles the three observability channels:

* **spans** — hierarchical wall-clock regions (phases, scenario runs);
* **metrics** — the named counter/gauge/histogram registry;
* **trace** — the per-run bounded RG :class:`~repro.obs.SearchTrace`.

Instrumentation is *off by default*: every hook in the planner takes
``telemetry=None`` and the hot paths guard on a single ``is not None``
check; a phase boundary without telemetry costs one detached
:func:`~repro.obs.timed` span, whose duration the planner still reports
(guarded by the overhead test in ``tests/obs/test_overhead_guard.py``).

Spans and metrics accumulate across runs (an experiment harness records
many scenario spans into one timeline); the search trace and the
``planner.*`` stat gauges are per-run — :meth:`Telemetry.begin_run`
starts a fresh trace, and :meth:`PlannerStats.publish
<repro.planner.PlannerStats.publish>` overwrites the gauges.

Distributed runs (docs/OBSERVABILITY.md, "Distributed tracing"): a
coordinator telemetry owns a ``trace_id`` and hands workers a
:class:`~repro.obs.TraceContext` via :meth:`Telemetry.current_context`;
worker spans shipped home in metrics snapshots are grafted into
:attr:`Telemetry.remote_spans` by :meth:`Telemetry.stitch_snapshot`, and
the exporters render them as per-pid lanes.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from .context import REMOTE_ID_BASE, TraceContext, new_trace_id, stitch_snapshot
from .metrics import MetricsRegistry
from .span import Span, SpanRecorder, timed
from .trace import SearchTrace

__all__ = ["Telemetry", "maybe_span"]


class Telemetry:
    """Spans + metrics + per-run search trace for one planner/harness."""

    def __init__(
        self,
        trace: bool = True,
        trace_max_events: int = 2000,
        context: TraceContext | None = None,
    ):
        self.spans = SpanRecorder()
        self.metrics = MetricsRegistry()
        self.trace_enabled = trace
        self.trace_max_events = trace_max_events
        self.trace: SearchTrace | None = None
        self.runs = 0
        # Cross-process tracing: the trace this telemetry belongs to (a
        # worker inherits the coordinator's id through ``context``), the
        # paired clock anchors remote timestamps are re-based through,
        # and the stitched remote spans with their id allocator.
        self.context = context
        self.trace_id = context.trace_id if context is not None else new_trace_id()
        self.epoch_anchor_s = time.time()
        self.perf_anchor_s = time.perf_counter()
        self.remote_spans: list[Span] = []
        self._next_remote_id = REMOTE_ID_BASE
        # Optional per-phase profiler (repro.obs.profile.PhaseProfiler);
        # when attached, every span entry/exit switches the active
        # cProfile so phase accounting is exclusive.
        self.profiler = None

    @contextmanager
    def span(self, name: str, **attrs):
        profiler = self.profiler
        if profiler is not None:
            profiler.enter_phase(name)
        try:
            with self.spans.span(name, **attrs) as sp:
                yield sp
        finally:
            if profiler is not None:
                profiler.exit_phase(name)

    def begin_run(self) -> SearchTrace | None:
        """Start one planner run: fresh search trace, run counter bumped.

        Called by :meth:`Planner.solve`, so a single planner (or a single
        ``Telemetry``) reused across ``solve()`` calls never leaks trace
        events from one run into the next.
        """
        self.runs += 1
        self.trace = (
            SearchTrace(max_events=self.trace_max_events) if self.trace_enabled else None
        )
        return self.trace

    # -- cross-process tracing -------------------------------------------------

    def current_span_id(self) -> int | None:
        """Id of the innermost open span, or ``None`` outside any span."""
        return self.spans.current_id

    def current_context(self) -> TraceContext:
        """The :class:`TraceContext` to dispatch worker tasks under right now.

        Call inside the dispatch span (``with telemetry.span("table2.fanout")``)
        so worker roots parent onto it when stitched.
        """
        return TraceContext(trace_id=self.trace_id, parent_span_id=self.current_span_id())

    def allocate_remote_id(self) -> int:
        """A fresh span id for one stitched remote span."""
        next_id = self._next_remote_id
        self._next_remote_id += 1
        return next_id

    def stitch_snapshot(self, snapshot, worker: int | None = None) -> list[Span]:
        """Graft a worker snapshot's spans in (see :func:`stitch_snapshot`)."""
        return stitch_snapshot(self, snapshot, worker=worker)


def maybe_span(telemetry: Telemetry | None, name: str, **attrs):
    """``telemetry.span(...)``, or a detached :func:`~repro.obs.timed` span
    when telemetry is off.

    The ``with maybe_span(...) as sp`` target is always a :class:`Span`:
    callers attach result attributes and read ``sp.duration_ms`` without
    a ``None`` check, and a disabled run records nothing.
    """
    if telemetry is None:
        return timed(name, **attrs)
    return telemetry.span(name, **attrs)
