"""Trace exporters: JSONL event stream, Chrome trace-event JSON, terminal.

Two file formats, each described by the field tables below
(``JSONL_RECORD_FIELDS``, ``CHROME_TOP_FIELDS``, ``CHROME_EVENT_FIELDS``,
``CHROME_PHASES``); :func:`repro.obs.load_trace` checks every file it
reads against them:

* **JSONL** (``repro plan --trace-out t.jsonl``) — one JSON object per
  line.  The first line is a header record; subsequent records are
  ``span``, ``metric``, and ``event`` (RG search trace) objects.  Stream-
  friendly and trivially greppable.
* **Chrome trace-event JSON** (``--trace-format chrome``) — the
  ``{"traceEvents": [...]}`` object format understood by Perfetto and
  ``chrome://tracing``: spans become complete (``"ph": "X"``) events,
  search-trace events become instants (``"ph": "i"``), and the metrics
  snapshot rides along under ``otherData``.

Timestamps are re-based so the earliest span starts at 0 µs; both
formats use microseconds, matching the trace-event convention.

Distributed runs: spans stitched home from worker processes
(:attr:`Telemetry.remote_spans <repro.obs.Telemetry.remote_spans>`) are
exported alongside the coordinator's own — tagged with their worker pid
(``pid``/``worker`` fields in JSONL; a real per-pid lane with a
``process_name`` metadata event in Chrome), already re-based onto the
coordinator's clock by the stitcher.  Both formats carry explicit span
ids and parent ids (Chrome puts them in ``args`` under ``span_id`` /
``parent_span_id``), so a loaded trace reconstructs the exact
coordinator→worker parenting, not just visual nesting.
"""

from __future__ import annotations

import json
import os
from typing import IO

from .telemetry import Telemetry

__all__ = [
    "JSONL_FORMAT",
    "CHROME_FORMAT",
    "export_jsonl",
    "export_chrome",
    "export_trace",
    "render_phase_report",
]

JSONL_FORMAT = "repro-trace-jsonl"
CHROME_FORMAT = "repro-trace-chrome"
FORMAT_VERSION = 1

# Field tables of both formats as ``(required, optional)`` pairs mapping a
# field to its allowed types; ``NoneType`` admits null, and a bool never
# passes for a number.
_NUMBER = (int, float)
_NoneType = type(None)
JSONL_RECORD_FIELDS: dict[str, tuple[dict, dict]] = {
    "header": (
        {"format": str, "version": int},
        {"generator": str, "runs": int, "trace_id": str, "pid": int},
    ),
    "span": (
        {
            "id": int,
            "name": str,
            "parent": (int, _NoneType),
            "start_us": _NUMBER,
            "dur_us": _NUMBER,
            "attrs": dict,
        },
        {"pid": int, "worker": int},
    ),
    "metric": (
        {"name": str, "kind": str},
        {
            "value": _NUMBER,
            "count": int,
            "sum": _NUMBER,
            "min": _NUMBER,
            "max": _NUMBER,
            "buckets": list,
        },
    ),
    "event": (
        {
            "kind": str,
            "detail": str,
            "depth": int,
            "action": (str, _NoneType),
            "reason": (str, _NoneType),
        },
        {"seq": int, "ts_us": _NUMBER},
    ),
    "trace-summary": ({"counters": dict, "prune_reasons": dict}, {"max_events": int}),
}
CHROME_TOP_FIELDS = ({"traceEvents": list, "displayTimeUnit": str}, {"otherData": dict})
CHROME_EVENT_FIELDS = (
    {"name": str, "ph": str, "ts": _NUMBER, "pid": int, "tid": int},
    {"cat": str, "dur": _NUMBER, "args": dict, "s": str},
)
# Complete spans ("X", which also need "dur"), instants, counters, metadata.
CHROME_PHASES = ("X", "i", "C", "M")


def _all_spans(telemetry: Telemetry) -> list:
    """Local spans, then the spans stitched home from workers."""
    return telemetry.spans.spans + telemetry.remote_spans


def _time_base(telemetry: Telemetry) -> float:
    starts = [sp.start_s for sp in _all_spans(telemetry)]
    if telemetry.trace is not None:
        starts.extend(e.ts for e in telemetry.trace.events if e.ts)
    return min(starts, default=0.0)


def _span_records(telemetry: Telemetry, base_s: float) -> list[dict]:
    out = []
    for sp in _all_spans(telemetry):
        record = {
            "type": "span",
            "id": sp.id,
            "name": sp.name,
            "parent": sp.parent,
            "start_us": (sp.start_s - base_s) * 1e6,
            "dur_us": sp.duration_s * 1e6,
            "attrs": sp.attrs,
        }
        if sp.pid is not None:  # stitched from a worker
            record["pid"] = sp.pid
            if sp.worker is not None:
                record["worker"] = sp.worker
        out.append(record)
    return out


def _event_records(telemetry: Telemetry, base_s: float) -> list[dict]:
    if telemetry.trace is None:
        return []
    out = []
    for seq, ev in enumerate(telemetry.trace.events):
        out.append(
            {
                "type": "event",
                "seq": seq,
                "kind": ev.kind,
                "action": ev.action,
                "detail": ev.detail,
                "depth": ev.depth,
                "reason": ev.reason,
                "ts_us": (ev.ts - base_s) * 1e6 if ev.ts else 0.0,
            }
        )
    return out


def export_jsonl(telemetry: Telemetry, fp: IO[str]) -> int:
    """Write the JSONL event stream; returns the number of records."""
    base_s = _time_base(telemetry)
    records: list[dict] = [
        {
            "type": "header",
            "format": JSONL_FORMAT,
            "version": FORMAT_VERSION,
            "generator": "repro",
            "runs": telemetry.runs,
            "trace_id": telemetry.trace_id,
            "pid": os.getpid(),
        }
    ]
    records.extend(_span_records(telemetry, base_s))
    for snap in telemetry.metrics.snapshot():
        snap = dict(snap)
        snap["type"] = "metric"
        records.append(snap)
    records.extend(_event_records(telemetry, base_s))
    if telemetry.trace is not None:
        records.append(
            {
                "type": "trace-summary",
                "counters": dict(telemetry.trace.counters),
                "prune_reasons": dict(telemetry.trace.prune_reasons),
                "max_events": telemetry.trace.max_events,
            }
        )
    for record in records:
        fp.write(json.dumps(record, sort_keys=True) + "\n")
    return len(records)


def export_chrome(telemetry: Telemetry, fp: IO[str]) -> int:
    """Write Chrome trace-event JSON; returns the number of trace events."""
    base_s = _time_base(telemetry)
    events: list[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "ts": 0,
            "pid": 1,
            "tid": 1,
            "args": {"name": "repro coordinator"},
        }
    ]
    # One metadata lane per worker pid, labelled with the pool index when
    # the stitcher knew it.
    lanes: dict[int, str] = {}
    for sp in telemetry.remote_spans:
        if sp.pid not in lanes:
            label = f"repro worker pid {sp.pid}"
            if sp.worker is not None:
                label = f"repro worker {sp.worker} (pid {sp.pid})"
            lanes[sp.pid] = label
    for pid, label in sorted(lanes.items()):
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "ts": 0,
                "pid": pid,
                "tid": 1,
                "args": {"name": label},
            }
        )
    for sp in _all_spans(telemetry):
        local = sp.pid is None
        events.append(
            {
                "name": sp.name,
                "cat": "planner" if local else "worker",
                "ph": "X",
                "ts": (sp.start_s - base_s) * 1e6,
                "dur": sp.duration_s * 1e6,
                "pid": 1 if local else sp.pid,
                "tid": 1,
                "args": {
                    **sp.attrs,
                    "span_id": sp.id,
                    "parent_span_id": sp.parent,
                },
            }
        )
    if telemetry.trace is not None:
        for ev in telemetry.trace.events:
            args = {"detail": ev.detail, "depth": ev.depth}
            if ev.action is not None:
                args["action"] = ev.action
            if ev.reason is not None:
                args["reason"] = ev.reason
            events.append(
                {
                    "name": f"rg.{ev.kind}",
                    "cat": "search",
                    "ph": "i",
                    "s": "t",
                    "ts": (ev.ts - base_s) * 1e6 if ev.ts else 0.0,
                    "pid": 1,
                    "tid": 2,
                    "args": args,
                }
            )
    payload = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "format": CHROME_FORMAT,
            "version": FORMAT_VERSION,
            "generator": "repro",
            "trace_id": telemetry.trace_id,
            "metrics": telemetry.metrics.snapshot(),
        },
    }
    json.dump(payload, fp, sort_keys=True)
    fp.write("\n")
    return len(events)


def export_trace(telemetry: Telemetry, path: str, fmt: str = "jsonl") -> int:
    """Export to ``path`` in ``'jsonl'`` or ``'chrome'`` format."""
    if fmt not in ("jsonl", "chrome"):
        raise ValueError(f"unknown trace format {fmt!r} (expected jsonl or chrome)")
    with open(path, "w") as fp:
        if fmt == "jsonl":
            return export_jsonl(telemetry, fp)
        return export_chrome(telemetry, fp)


# ---------------------------------------------------------------------------
# Terminal renderer — the Figs. 7–8 style search-progress account
# ---------------------------------------------------------------------------

_BAR_WIDTH = 40


def _bar(value: float, peak: float, width: int = _BAR_WIDTH) -> str:
    if peak <= 0:
        return ""
    return "#" * max(1, round(width * value / peak)) if value > 0 else ""


def render_phase_report(telemetry: Telemetry) -> str:
    """Figs. 7–8 style terminal account of one (or more) planner runs.

    Three sections: the span tree with phase wall-clock bars, the RG
    search-progress counters with prune reasons, and histogram sketches
    of the recorded work distributions.
    """
    lines: list[str] = ["phase spans:"]
    phase_spans = [sp for sp in telemetry.spans.spans if sp.end_s is not None]
    peak_ms = max((sp.duration_ms for sp in phase_spans), default=0.0)
    for line in telemetry.spans.render_tree().splitlines():
        lines.append("  " + line)
    if phase_spans and peak_ms > 0:
        lines.append("")
        lines.append("phase wall-clock:")
        for sp in phase_spans:
            if sp.parent is None and len(telemetry.spans.children(sp.id)) > 0:
                continue  # bars for leaf phases only; parents just sum them
            lines.append(
                f"  {sp.name:<16s} {sp.duration_ms:9.2f} ms  |{_bar(sp.duration_ms, peak_ms)}"
            )

    if telemetry.trace is not None:
        lines.append("")
        lines.append(telemetry.trace.summary())

    from .metrics import Histogram

    for hist in telemetry.metrics:
        if not isinstance(hist, Histogram) or hist.count == 0:
            continue
        lines.append("")
        lines.append(
            f"{hist.name}: n={hist.count} mean={hist.mean:g} "
            f"min={hist.min:g} max={hist.max:g}"
        )
        peak = max(c for _b, c in hist.buckets()) or 1
        for bound, count in hist.buckets():
            if count:
                label = (
                    f"<= {bound:g}" if bound != float("inf")
                    else f"> {hist.bounds[-1]:g}"
                )
                lines.append(f"  {label:>10s}: {count:8d} |{_bar(count, peak)}")
    return "\n".join(lines)
