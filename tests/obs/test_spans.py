"""Unit tests for hierarchical span recording."""

import pytest

from repro.domains import media
from repro.network import pair_network
from repro.obs import Span, SpanRecorder, Telemetry, maybe_span, timed
from repro.planner import Planner, PlannerConfig


class TestSpanRecorder:
    def test_nesting_builds_parent_links(self):
        rec = SpanRecorder()
        with rec.span("outer"):
            with rec.span("inner"):
                pass
            with rec.span("sibling"):
                pass
        outer, inner, sibling = rec.spans
        assert outer.parent is None
        assert inner.parent == outer.id
        assert sibling.parent == outer.id
        assert [s.name for s in rec.children(outer.id)] == ["inner", "sibling"]

    def test_durations_closed_and_ordered(self):
        rec = SpanRecorder()
        with rec.span("outer"):
            with rec.span("inner"):
                pass
        outer, inner = rec.spans
        assert outer.end_s is not None and inner.end_s is not None
        assert outer.duration_s >= inner.duration_s >= 0.0
        assert outer.start_s <= inner.start_s
        assert outer.end_s >= inner.end_s

    def test_attrs_captured_and_mutable_inside(self):
        rec = SpanRecorder()
        with rec.span("phase", actions=3) as sp:
            sp.attrs["result"] = "ok"
        assert rec.spans[0].attrs == {"actions": 3, "result": "ok"}

    def test_stack_unwinds_on_exception(self):
        rec = SpanRecorder()
        with pytest.raises(RuntimeError):
            with rec.span("outer"):
                with rec.span("inner"):
                    raise RuntimeError("boom")
        # Both spans closed despite the exception; a new span is a root.
        assert all(s.end_s is not None for s in rec.spans)
        with rec.span("after"):
            pass
        assert rec.spans[-1].parent is None

    def test_open_span_duration_is_zero(self):
        rec = SpanRecorder()
        with rec.span("open") as sp:
            assert sp.duration_s == 0.0

    def test_render_tree_indents_children(self):
        rec = SpanRecorder()
        with rec.span("outer", k=1):
            with rec.span("inner"):
                pass
        text = rec.render_tree()
        lines = text.splitlines()
        assert lines[0].startswith("outer")
        assert lines[1].startswith("  inner")
        assert "[k=1]" in lines[0]

    def test_render_tree_empty(self):
        assert "no spans" in SpanRecorder().render_tree()


class TestMaybeSpan:
    def test_none_telemetry_yields_detached_span(self):
        with maybe_span(None, "x", k=1) as sp:
            assert isinstance(sp, Span)
            sum(range(1000))
        assert sp.duration_s > 0.0
        assert sp.attrs == {"k": 1}
        assert sp.id == -1 and sp.parent is None

    def test_timed_records_nowhere(self):
        tele = Telemetry()
        with tele.span("outer"):
            with timed("detached") as sp:
                pass
        assert sp.end_s is not None
        assert [s.name for s in tele.spans.spans] == ["outer"]

    def test_enabled_telemetry_records(self):
        tele = Telemetry()
        with maybe_span(tele, "phase", k=1) as sp:
            assert sp is not None
        assert len(tele.spans) == 1
        assert tele.spans.spans[0].attrs == {"k": 1}


class TestTelemetryRuns:
    def test_begin_run_resets_trace_and_counts_runs(self):
        tele = Telemetry()
        first = tele.begin_run()
        first.created("a", 1.0, 1)
        second = tele.begin_run()
        assert tele.runs == 2
        assert second is not first
        assert second.counters["create"] == 0

    def test_trace_disabled(self):
        tele = Telemetry(trace=False)
        assert tele.begin_run() is None
        assert tele.trace is None


class TestStatsAreSpans:
    """``PlannerStats`` phase times are the phase spans' durations."""

    def test_phase_times_equal_span_durations(self):
        tele = Telemetry(trace=False)
        config = PlannerConfig(
            leveling=media.proportional_leveling((90.0, 100.0)), telemetry=tele
        )
        plan = Planner(config).solve(
            media.build_app("n0", "n1"), pair_network(cpu=30.0, link_bw=70.0)
        )
        spans = {sp.name: sp for sp in tele.spans.spans}
        assert plan.stats.plrg_ms == spans["plrg"].duration_ms
        assert plan.stats.slrg_ms == spans["slrg"].duration_ms
        assert plan.stats.rg_ms == spans["rg"].duration_ms
        assert plan.stats.total_ms == plan.stats.search_ms
        for field in ("plrg_ms", "slrg_ms", "rg_ms", "total_ms"):
            assert tele.metrics.get(f"planner.{field}").value == getattr(plan.stats, field)
        # The plrg span is Planner.solve's child and keeps its graph sizes.
        plrg = spans["plrg"]
        assert plrg.parent == spans["plan.solve"].id
        assert set(plrg.attrs) == {"prop_nodes", "action_nodes", "usable_actions"}
        assert plrg.attrs["prop_nodes"] == plan.stats.plrg_prop_nodes
        assert plrg.attrs["action_nodes"] == plan.stats.plrg_action_nodes
