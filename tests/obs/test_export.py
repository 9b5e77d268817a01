"""Exporter round-trips: JSONL and Chrome files, and the checking loader."""

import json

import pytest

from repro.domains import media
from repro.network import pair_network
from repro.obs import (
    Telemetry,
    TraceFileError,
    export_trace,
    load_trace,
    render_phase_report,
    summarize_trace,
)
from repro.planner import Planner, PlannerConfig, PlannerStats


@pytest.fixture(scope="module")
def telemetry():
    tele = Telemetry()
    net = pair_network(cpu=30.0, link_bw=70.0)
    app = media.build_app("n0", "n1")
    config = PlannerConfig(
        leveling=media.proportional_leveling((90, 100)), telemetry=tele
    )
    plan = Planner(config).solve(app, net)
    tele._plan = plan  # stash for assertions
    return tele


def _rewrite_jsonl(path, lineno, edit):
    """Apply ``edit`` to the record on 0-based line ``lineno`` of a JSONL file."""
    lines = path.read_text().splitlines()
    record = json.loads(lines[lineno])
    edit(record)
    lines[lineno] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n")


def _rewrite_chrome(path, edit):
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))


class TestJsonlRoundTrip:
    def test_export_and_reload(self, telemetry, tmp_path):
        out = tmp_path / "t.jsonl"
        records = export_trace(telemetry, str(out), "jsonl")
        assert records == len(out.read_text().splitlines())
        trace = load_trace(str(out))
        assert trace.format == "jsonl"
        assert trace.header["format"] == "repro-trace-jsonl"
        assert trace.header["runs"] == 1
        names = {sp["name"] for sp in trace.spans}
        assert {"compile", "plan.solve", "plrg", "slrg", "rg", "execute"} <= names
        assert trace.trace_summary["counters"]["terminal"] == 1

    def test_span_parents_preserved(self, telemetry, tmp_path):
        out = tmp_path / "t.jsonl"
        export_trace(telemetry, str(out), "jsonl")
        trace = load_trace(str(out))
        by_id = {sp["id"]: sp for sp in trace.spans}
        rg = next(sp for sp in trace.spans if sp["name"] == "rg")
        assert by_id[rg["parent"]]["name"] == "plan.solve"

    def test_stats_travel_as_gauges(self, telemetry, tmp_path):
        out = tmp_path / "t.jsonl"
        export_trace(telemetry, str(out), "jsonl")
        trace = load_trace(str(out))
        gauges = {
            m["name"]: m["value"] for m in trace.metrics if m["kind"] == "gauge"
        }
        plan = telemetry._plan
        assert gauges["planner.rg_nodes"] == plan.stats.rg_nodes
        assert gauges["planner.rg_expanded"] == plan.stats.rg_expanded

    def test_events_carry_explicit_reason(self, telemetry, tmp_path):
        out = tmp_path / "t.jsonl"
        export_trace(telemetry, str(out), "jsonl")
        trace = load_trace(str(out))
        prunes = [e for e in trace.events if e["kind"] == "prune"]
        assert prunes
        assert all(
            e["reason"] in ("replay", "transposition", "heuristic") for e in prunes
        )

    def test_summarize_renders(self, telemetry, tmp_path):
        out = tmp_path / "t.jsonl"
        export_trace(telemetry, str(out), "jsonl")
        text = summarize_trace(load_trace(str(out)))
        assert "planner stats (Table 2 view)" in text
        assert "prune reasons" in text
        assert "rg.f_value" in text

    def test_timestamps_rebased(self, telemetry, tmp_path):
        out = tmp_path / "t.jsonl"
        export_trace(telemetry, str(out), "jsonl")
        trace = load_trace(str(out))
        starts = [sp["start_us"] for sp in trace.spans]
        assert min(starts) == pytest.approx(0.0, abs=1.0)
        assert all(s >= 0.0 for s in starts)


class TestChromeRoundTrip:
    def test_export_and_reload(self, telemetry, tmp_path):
        out = tmp_path / "t.json"
        export_trace(telemetry, str(out), "chrome")
        payload = json.loads(out.read_text())
        phases = {ev["ph"] for ev in payload["traceEvents"]}
        assert {"M", "X", "i"} <= phases
        trace = load_trace(str(out))
        assert trace.format == "chrome"
        assert {sp["name"] for sp in trace.spans} >= {"rg", "plrg", "slrg"}
        assert any(e["kind"] == "terminal" for e in trace.events)

    def test_stats_recoverable_from_chrome_metrics(self, telemetry, tmp_path):
        out = tmp_path / "t.json"
        export_trace(telemetry, str(out), "chrome")
        trace = load_trace(str(out))
        from repro.obs import MetricsRegistry

        reg = MetricsRegistry()
        for m in trace.metrics:
            if m["kind"] == "gauge":
                reg.set_gauge(m["name"], m["value"])
        restored = PlannerStats.from_metrics(reg)
        assert restored.rg_nodes == telemetry._plan.stats.rg_nodes

    def test_summarize_matches_search_counts(self, telemetry, tmp_path):
        out = tmp_path / "t.json"
        export_trace(telemetry, str(out), "chrome")
        text = summarize_trace(load_trace(str(out)))
        assert "search events:" in text
        assert "terminal : 1" in text


class TestLoaderErrors:
    def test_unknown_format_rejected(self, telemetry, tmp_path):
        with pytest.raises(ValueError, match="unknown trace format"):
            export_trace(telemetry, str(tmp_path / "t.x"), "xml")

    def test_missing_file(self, tmp_path):
        with pytest.raises(TraceFileError, match="cannot read"):
            load_trace(str(tmp_path / "absent.jsonl"))

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.jsonl"
        p.write_text("")
        with pytest.raises(TraceFileError, match="empty"):
            load_trace(str(p))

    def test_garbage_file(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        p.write_text("not json at all\n")
        with pytest.raises(TraceFileError, match="not JSON"):
            load_trace(str(p))

    def test_missing_header(self, tmp_path):
        p = tmp_path / "nohdr.jsonl"
        p.write_text(json.dumps({"type": "span", "id": 0}) + "\n")
        with pytest.raises(TraceFileError, match="missing header"):
            load_trace(str(p))

    def test_single_line_object_is_not_mistaken_for_chrome(self, tmp_path):
        p = tmp_path / "one.jsonl"
        p.write_text(
            json.dumps({"type": "header", "format": "repro-trace-jsonl", "version": 1})
        )
        # The header parses as JSONL; the file then fails for lack of spans.
        with pytest.raises(TraceFileError, match="no spans"):
            load_trace(str(p))


class TestSchemaChecker:
    def test_jsonl_export_passes_schema(self, telemetry, tmp_path):
        out = tmp_path / "t.jsonl"
        export_trace(telemetry, str(out), "jsonl")
        assert load_trace(str(out)).spans

    def test_chrome_export_passes_schema(self, telemetry, tmp_path):
        out = tmp_path / "t.json"
        export_trace(telemetry, str(out), "chrome")
        assert load_trace(str(out)).spans

    def test_corrupt_jsonl_caught(self, telemetry, tmp_path):
        out = tmp_path / "t.jsonl"
        export_trace(telemetry, str(out), "jsonl")
        _rewrite_jsonl(out, 1, lambda record: record.pop("name"))
        with pytest.raises(TraceFileError, match="missing required field 'name'"):
            load_trace(str(out))

    def test_corrupt_chrome_caught(self, telemetry, tmp_path):
        out = tmp_path / "t.json"
        export_trace(telemetry, str(out), "chrome")
        _rewrite_chrome(out, lambda p: p["traceEvents"][1].update(ph="Z"))
        with pytest.raises(TraceFileError, match="phase 'Z'"):
            load_trace(str(out))

    def test_chrome_event_without_ts_caught(self, telemetry, tmp_path):
        out = tmp_path / "t.json"
        export_trace(telemetry, str(out), "chrome")
        _rewrite_chrome(out, lambda p: p["traceEvents"][2].pop("ts"))
        with pytest.raises(TraceFileError, match="'ts'"):
            load_trace(str(out))

    def test_bool_span_times_rejected(self, telemetry, tmp_path):
        # bool is an int subclass; it must not pass for a number.
        out = tmp_path / "t.jsonl"
        export_trace(telemetry, str(out), "jsonl")
        _rewrite_jsonl(out, 1, lambda record: record.update(start_us=True, dur_us=False))
        with pytest.raises(TraceFileError, match="'start_us' has type bool"):
            load_trace(str(out))

    def test_unknown_header_version_rejected(self, telemetry, tmp_path):
        out = tmp_path / "t.jsonl"
        export_trace(telemetry, str(out), "jsonl")
        _rewrite_jsonl(out, 0, lambda record: record.update(version=99))
        with pytest.raises(TraceFileError, match="unsupported version 99"):
            load_trace(str(out))

    def test_chrome_span_without_dur_rejected(self, telemetry, tmp_path):
        out = tmp_path / "t.json"
        export_trace(telemetry, str(out), "chrome")

        def drop_first_dur(payload):
            span = next(ev for ev in payload["traceEvents"] if ev["ph"] == "X")
            del span["dur"]

        _rewrite_chrome(out, drop_first_dur)
        with pytest.raises(TraceFileError, match="phase 'X' requires 'dur'"):
            load_trace(str(out))


class TestPhaseReport:
    def test_live_report_sections(self, telemetry):
        text = render_phase_report(telemetry)
        assert "phase spans:" in text
        assert "phase wall-clock:" in text
        assert "search trace summary:" in text
        assert "rg.f_value" in text
        assert "|#" in text  # at least one bar rendered

    def test_report_without_any_data(self):
        text = render_phase_report(Telemetry())
        assert "no spans" in text
