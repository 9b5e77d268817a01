"""Load exported trace files back and summarize them in the terminal.

``repro trace summarize FILE`` sniffs the format (JSONL event stream or
Chrome trace-event JSON), checks the file against the exporter's field
tables (a failure is a :class:`TraceFileError`: exit status 1 on the
CLI), normalizes both formats into one :class:`TraceFile` shape, and
renders the same search-progress account the live ``--metrics`` flag
prints — so a trace captured on one machine can be read on another
without the planner objects.  :func:`load_trace` is the repo's one
reader of exported trace files.

Multi-process traces (a ``--workers N`` run with ``--trace-out``) group
per *lane*: spans carrying a worker ``pid`` render under their own
``lane: worker pid P`` heading, with cross-lane parent links (a worker
root span parented onto the coordinator's dispatch span) annotated
rather than silently flattened.  Concatenating two exports into one
file is *mixed-schema input* and fails loudly with the offending line.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .export import (
    CHROME_EVENT_FIELDS,
    CHROME_FORMAT,
    CHROME_PHASES,
    CHROME_TOP_FIELDS,
    FORMAT_VERSION,
    JSONL_FORMAT,
    JSONL_RECORD_FIELDS,
)

__all__ = ["TraceFile", "TraceFileError", "load_trace", "summarize_trace"]


class TraceFileError(ValueError):
    """The file is not a readable exported trace."""


@dataclass
class TraceFile:
    """Format-independent view of an exported trace."""

    format: str  # 'jsonl' | 'chrome'
    spans: list[dict] = field(default_factory=list)  # name/parent/start_us/dur_us/attrs
    metrics: list[dict] = field(default_factory=list)  # registry snapshots
    events: list[dict] = field(default_factory=list)  # kind/action/detail/depth/reason
    header: dict = field(default_factory=dict)
    trace_summary: dict = field(default_factory=dict)


def load_trace(path: str) -> TraceFile:
    """Parse and check an exported trace file of either format.

    Raises :class:`TraceFileError` on the first departure from the field
    tables in :mod:`repro.obs.export`: a missing or mistyped field, a
    foreign format or version, an unknown Chrome phase, an ``X`` event
    without ``dur``, or a file with no span at all.
    """
    try:
        text = open(path).read()
    except OSError as exc:
        raise TraceFileError(f"cannot read {path}: {exc}") from exc
    stripped = text.lstrip()
    if not stripped:
        raise TraceFileError(f"{path}: empty file")
    trace = None
    if stripped.startswith("{"):
        # A Chrome export is one JSON object with a traceEvents array; a
        # JSONL export is one object *per line*.  Try the whole-file parse
        # first so a single-line JSONL header is not mistaken for Chrome.
        try:
            payload = json.loads(text)
        except json.JSONDecodeError:
            payload = None
        if isinstance(payload, dict) and "traceEvents" in payload:
            trace = _load_chrome(path, payload)
    if trace is None:
        trace = _load_jsonl(path, text)
    if not trace.spans:
        raise TraceFileError(f"{path}: no spans (empty telemetry?)")
    return trace


def _check_fields(record: dict, fields: tuple[dict, dict], where: str) -> None:
    required, optional = fields
    for name in required:
        if name not in record:
            raise TraceFileError(f"{where}: missing required field {name!r}")
    for name, types in (*required.items(), *optional.items()):
        if name not in record:
            continue
        value = record[name]
        if isinstance(value, bool) or not isinstance(value, types):
            raise TraceFileError(
                f"{where}: field {name!r} has type {type(value).__name__}"
            )


def _check_header(header: dict, fmt: str, where: str) -> None:
    if header.get("format") != fmt:
        raise TraceFileError(f"{where}: unexpected format {header.get('format')!r}")
    if header.get("version") != FORMAT_VERSION:
        raise TraceFileError(
            f"{where}: unsupported version {header.get('version')!r} "
            f"(this reader knows version {FORMAT_VERSION})"
        )


def _load_jsonl(path: str, text: str) -> TraceFile:
    out = TraceFile(format="jsonl")
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        where = f"{path}:{lineno}"
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TraceFileError(f"{where}: not JSON ({exc})") from exc
        if not isinstance(record, dict) or "type" not in record:
            raise TraceFileError(f"{where}: record without a 'type' field")
        rtype = record["type"]
        if not out.header and rtype != "header":
            raise TraceFileError(f"{where}: missing header record before {rtype!r}")
        fields = JSONL_RECORD_FIELDS.get(rtype)
        if fields is None:
            raise TraceFileError(f"{where}: unknown record type {rtype!r}")
        _check_fields(record, fields, where)
        if rtype == "header":
            if out.header:
                raise TraceFileError(
                    f"{where}: second header record — mixed-schema "
                    "input (two exports concatenated into one file?); "
                    "summarize each export separately"
                )
            _check_header(record, JSONL_FORMAT, where)
            out.header = record
        elif rtype == "span":
            out.spans.append(record)
        elif rtype == "metric":
            out.metrics.append(record)
        elif rtype == "event":
            out.events.append(record)
        else:
            out.trace_summary = record
    return out


def _load_chrome(path: str, payload: dict) -> TraceFile:
    _check_fields(payload, CHROME_TOP_FIELDS, path)
    other = payload.get("otherData", {})
    if other:
        _check_header(other, CHROME_FORMAT, f"{path}: otherData")
    out = TraceFile(format="chrome", header=other, metrics=list(other.get("metrics", [])))
    next_id = 0
    for i, ev in enumerate(payload["traceEvents"]):
        where = f"{path}: traceEvents[{i}]"
        if not isinstance(ev, dict):
            raise TraceFileError(f"{where}: not an object")
        _check_fields(ev, CHROME_EVENT_FIELDS, where)
        ph = ev["ph"]
        if ph not in CHROME_PHASES:
            raise TraceFileError(f"{where}: phase {ph!r} not in {list(CHROME_PHASES)}")
        if ph == "X":
            if "dur" not in ev:
                raise TraceFileError(f"{where}: phase 'X' requires 'dur'")
            # Current exports carry explicit span identity in args
            # (span_id / parent_span_id); older files fall back to
            # sequential ids with nesting implied by timestamps only.
            args = dict(ev.get("args", {}))
            span_id = args.pop("span_id", None)
            parent = args.pop("parent_span_id", None)
            record = {
                "id": span_id if span_id is not None else next_id,
                "name": ev["name"],
                "parent": parent,
                "start_us": ev["ts"],
                "dur_us": ev["dur"],
                "attrs": args,
            }
            if ev["pid"] != 1:  # pid 1 is the coordinator lane by convention
                record["pid"] = ev["pid"]
            out.spans.append(record)
            next_id += 1
        elif ph == "i":
            args = ev.get("args", {})
            name = ev["name"]
            out.events.append(
                {
                    "kind": name.split(".", 1)[1] if "." in name else name,
                    "action": args.get("action"),
                    "detail": args.get("detail", ""),
                    "depth": args.get("depth", 0),
                    "reason": args.get("reason"),
                    "ts_us": ev["ts"],
                }
            )
    return out


def summarize_trace(trace: TraceFile) -> str:
    """Human-readable account of a loaded trace file."""
    lines = [f"trace file: {trace.format} format"]
    if trace.header.get("runs"):
        lines.append(f"planner runs recorded: {trace.header['runs']}")

    if trace.spans:
        by_id = {sp["id"]: sp for sp in trace.spans}
        # Group spans into lanes: pid-less spans are the coordinator's
        # own; spans stitched home from workers carry their worker pid.
        lanes: dict[object, list[dict]] = {}
        for sp in trace.spans:
            lanes.setdefault(sp.get("pid"), []).append(sp)
        multi = len(lanes) > 1
        if multi:
            worker_lanes = len([pid for pid in lanes if pid is not None])
            lines.append(
                f"lanes: coordinator + {worker_lanes} worker process(es)"
            )

        def render_lane(spans: list[dict], title: str) -> None:
            lines.append("")
            lines.append(title)
            lane_ids = {sp["id"] for sp in spans}
            depth_cache: dict[int, int] = {}

            def depth_of(sp: dict) -> int:
                sid = sp["id"]
                if sid in depth_cache:
                    return depth_cache[sid]
                parent = sp.get("parent")
                d = (
                    0
                    if parent is None or parent not in lane_ids
                    else depth_of(by_id[parent]) + 1
                )
                depth_cache[sid] = d
                return d

            for sp in spans:
                indent = "  " * depth_of(sp)
                attrs = sp.get("attrs") or {}
                shown = (
                    "  [" + ", ".join(f"{k}={v}" for k, v in sorted(attrs.items())) + "]"
                    if attrs
                    else ""
                )
                parent = sp.get("parent")
                cross = ""
                if parent is not None and parent not in lane_ids and parent in by_id:
                    # Cross-lane link: a worker root dispatched by a
                    # coordinator span — annotate instead of flattening.
                    cross = f"  <- {by_id[parent]['name']}#{parent}"
                lines.append(
                    f"  {indent}{sp['name']:<24s} "
                    f"{sp.get('dur_us', 0.0) / 1e3:9.2f} ms{shown}{cross}"
                )

        coordinator = lanes.pop(None, [])
        if coordinator:
            render_lane(coordinator, "spans (coordinator):" if multi else "spans:")
        for pid in sorted(lanes):
            spans = lanes[pid]
            worker = next(
                (sp.get("worker") for sp in spans if sp.get("worker") is not None),
                None,
            )
            title = (
                f"spans (worker {worker}, pid {pid}):"
                if worker is not None
                else f"spans (worker pid {pid}):"
            )
            render_lane(spans, title)

    stats_gauges = {
        m["name"]: m.get("value")
        for m in trace.metrics
        if m.get("kind") == "gauge" and m.get("name", "").startswith("planner.")
    }
    if stats_gauges:
        lines.append("")
        lines.append("planner stats (Table 2 view):")
        for name in sorted(stats_gauges):
            value = stats_gauges[name]
            shown = f"{value:g}" if isinstance(value, float) else str(value)
            lines.append(f"  {name.removeprefix('planner.'):<22s} {shown}")

    histograms = [m for m in trace.metrics if m.get("kind") == "histogram"]
    counters = [
        m for m in trace.metrics
        if m.get("kind") == "counter" and m.get("value", 0)
    ]
    if counters:
        lines.append("")
        lines.append("counters:")
        for m in sorted(counters, key=lambda m: m["name"]):
            lines.append(f"  {m['name']:<28s} {m['value']}")
    for hist in histograms:
        if not hist.get("count"):
            continue
        lines.append("")
        mean = hist["sum"] / hist["count"]
        lines.append(
            f"{hist['name']}: n={hist['count']} mean={mean:g} "
            f"min={hist['min']:g} max={hist['max']:g}"
        )
        buckets = [(b, c) for b, c in hist.get("buckets", []) if c]
        peak = max((c for _b, c in buckets), default=1)
        width = 40
        for bound, count in buckets:
            label = f"<= {bound:g}" if bound is not None else "overflow"
            bar = "#" * max(1, round(width * count / peak))
            lines.append(f"  {label:>10s}: {count:8d} |{bar}")

    if trace.events or trace.trace_summary:
        lines.append("")
        lines.append("search events:")
        counts = trace.trace_summary.get("counters")
        if counts is None:
            counts = {}
            for ev in trace.events:
                counts[ev["kind"]] = counts.get(ev["kind"], 0) + 1
        for kind in ("create", "expand", "prune", "terminal"):
            lines.append(f"  {kind:9s}: {counts.get(kind, 0)}")
        reasons = trace.trace_summary.get("prune_reasons")
        if reasons is None:
            reasons = {}
            for ev in trace.events:
                if ev["kind"] == "prune" and ev.get("reason"):
                    reasons[ev["reason"]] = reasons.get(ev["reason"], 0) + 1
        if reasons:
            lines.append("  prune reasons:")
            for reason in sorted(reasons, key=reasons.get, reverse=True):
                lines.append(f"    {reason}: {reasons[reason]}")
    return "\n".join(lines)
