"""Cross-process trace propagation: contexts, snapshots, stitched spans.

A coordinator that fans planner work out over worker processes opens a
dispatch span (``table2.fanout``, ``campaign.fanout``,
``controller.batch``, ``hierarchy.fanout``, ``robust.race``) and sends
every task off with a :class:`TraceContext` — the coordinator's trace id
plus the id of that dispatch span.  Tasks carry no trace field: the
worker wrapper of :mod:`repro.parallel.workers` carries the context
beside the task, and the worker builds its :class:`~repro.obs.Telemetry`
*under* it.  When the task's value travels home, the worker's metrics
and recorded spans ride along as a :class:`MetricsSnapshot`, and
:func:`stitch_snapshot` grafts the spans into the coordinator's
telemetry as :class:`~repro.obs.Span` records tagged with the worker's
``pid`` — re-identified (worker-local span ids collide across workers),
re-parented (worker roots hang off the dispatch span), and re-based onto
the coordinator's clock — so one export renders the whole fleet on one
timeline, one lane per worker pid.

Clock mapping: span timestamps are ``time.perf_counter`` seconds, which
are only comparable within one process.  Every ``Telemetry`` therefore
captures a paired (epoch, perf_counter) anchor at construction; a worker
timestamp maps onto the coordinator's perf timeline through the epoch:

    epoch  = worker.epoch_anchor + (t - worker.perf_anchor)
    parent = parent.perf_anchor + (epoch - parent.epoch_anchor)

Wall-clock skew between the two anchors is bounded by process spawn
latency on one machine — microseconds against millisecond spans.
"""

from __future__ import annotations

import os
import uuid
from dataclasses import dataclass

from .span import Span

__all__ = [
    "TraceContext",
    "MetricsSnapshot",
    "REMOTE_ID_BASE",
    "new_trace_id",
    "spans_payload",
    "stitch_snapshot",
]

REMOTE_ID_BASE = 1_000_000
"""First span id handed to stitched remote spans.  Coordinator-local ids
are list indices (0, 1, 2, ...); starting remote ids here keeps the two
ranges disjoint without coordinating allocation across processes."""


def new_trace_id() -> str:
    """A fresh 32-hex-char trace id (uuid4)."""
    return uuid.uuid4().hex


@dataclass(frozen=True, slots=True)
class TraceContext:
    """The cross-process trace position a task is dispatched under.

    ``parent_span_id`` is the coordinator-side span that dispatched the
    work; worker root spans are re-parented onto it when stitched.  The
    dataclass is tiny, immutable, and trivially picklable — a disabled
    pipeline ships ``None`` instead, so the telemetry-off hot path pays
    one ``None`` per dispatched task and nothing else.
    """

    trace_id: str
    parent_span_id: int | None = None


def spans_payload(recorder) -> tuple[dict, ...]:
    """Flatten a :class:`~repro.obs.SpanRecorder` for the trip home.

    Plain dicts (not :class:`Span` objects) cross the process boundary:
    the snapshot stays schema-stable and versionable, and the
    parent never unpickles worker-side classes.  Order is preserved —
    the recorder appends parents before children, which
    :func:`stitch_snapshot` relies on when remapping ids.
    """
    return tuple(
        {
            "id": sp.id,
            "name": sp.name,
            "start_s": sp.start_s,
            "end_s": sp.end_s,
            "parent": sp.parent,
            "attrs": dict(sp.attrs),
        }
        for sp in recorder.spans
    )


@dataclass(frozen=True)
class MetricsSnapshot:
    """A worker telemetry, flattened for the trip home.

    ``records`` is the registry's JSON snapshot; ``spans`` carries the
    worker's recorded spans as plain dicts (:func:`spans_payload`)
    together with the provenance the coordinator needs to stitch them
    into its own timeline (docs/OBSERVABILITY.md, "Distributed
    tracing"): the worker pid (the trace lane), the trace context the
    task ran under, and the paired epoch/perf clock anchors that map
    worker ``perf_counter`` timestamps onto the coordinator's clock.
    """

    records: tuple = ()
    spans: tuple = ()
    pid: int = 0
    trace_id: str = ""
    parent_span_id: int | None = None
    epoch_anchor_s: float = 0.0
    perf_anchor_s: float = 0.0

    @staticmethod
    def from_telemetry(telemetry) -> "MetricsSnapshot":
        if telemetry is None:
            return MetricsSnapshot()
        context = telemetry.context
        return MetricsSnapshot(
            records=tuple(telemetry.metrics.snapshot()),
            spans=spans_payload(telemetry.spans),
            pid=os.getpid(),
            trace_id=telemetry.trace_id,
            parent_span_id=context.parent_span_id if context is not None else None,
            epoch_anchor_s=telemetry.epoch_anchor_s,
            perf_anchor_s=telemetry.perf_anchor_s,
        )

    @staticmethod
    def from_registry(metrics) -> "MetricsSnapshot":
        if metrics is None:
            return MetricsSnapshot()
        return MetricsSnapshot(records=tuple(metrics.snapshot()))

    def merge_into(self, metrics) -> None:
        """Accumulate into a parent registry (see ``merge_snapshot``)."""
        if metrics is not None and self.records:
            metrics.merge_snapshot(list(self.records))


def stitch_snapshot(telemetry, snapshot, worker: int | None = None) -> list[Span]:
    """Graft a worker snapshot's spans into ``telemetry.remote_spans``.

    Re-identifies every span (fresh ids from the coordinator's remote
    allocator), re-parents worker roots onto the dispatching span named
    by the snapshot's context (only when the snapshot belongs to this
    telemetry's trace — foreign snapshots stitch as unparented lanes),
    and re-bases timestamps onto the coordinator's perf clock via the
    paired epoch/perf anchors.  Returns the grafted spans; a snapshot
    without spans is a cheap no-op.
    """
    if not snapshot.spans:
        return []
    parent_local = (
        snapshot.parent_span_id
        if snapshot.trace_id and snapshot.trace_id == telemetry.trace_id
        else None
    )
    # worker perf -> epoch -> coordinator perf (see module docstring)
    shift = (
        (snapshot.epoch_anchor_s - snapshot.perf_anchor_s)
        + (telemetry.perf_anchor_s - telemetry.epoch_anchor_s)
    )
    id_map: dict[int, int] = {}
    grafted: list[Span] = []
    for record in snapshot.spans:
        new_id = telemetry.allocate_remote_id()
        id_map[record["id"]] = new_id
        parent = record.get("parent")
        end_s = record.get("end_s")
        grafted.append(
            Span(
                id=new_id,
                name=record["name"],
                start_s=record["start_s"] + shift,
                end_s=None if end_s is None else end_s + shift,
                parent=id_map[parent] if parent is not None else parent_local,
                attrs=dict(record.get("attrs") or {}),
                pid=snapshot.pid,
                worker=worker,
            )
        )
    telemetry.remote_spans.extend(grafted)
    return grafted
