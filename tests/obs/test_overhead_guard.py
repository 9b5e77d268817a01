"""Disabled-telemetry overhead guard.

The observability hooks must be *cheap when off*: with
``PlannerConfig.telemetry=None`` the planner runs the raw phase pipeline
plus a handful of ``is not None`` checks and ``nullcontext`` entries.
This test times the full facade against the bare phase functions on the
Fig. 9 small-network scenario-B instance (~10-20 ms per solve) and fails
if the facade costs more than 3% (plus a small absolute allowance for
timer noise) over the raw pipeline.

Timing methodology: the two variants are interleaved within each round
(so CPU frequency drift hits both equally), the per-variant statistic is
the *minimum* over rounds (noise is strictly additive), and the whole
check retries a few times before failing so one noisy CI neighbour
cannot flake the suite.
"""

import time

import pytest

from repro.domains.media import build_app
from repro.experiments import scenario, small_case
from repro.planner import Planner, PlannerConfig
from repro.planner.plrg import build_plrg
from repro.planner.rg import regression_search
from repro.planner.slrg import SLRG

ROUNDS = 5
ATTEMPTS = 3
RELATIVE_SLACK = 1.03  # the documented <=3% bound
ABSOLUTE_SLACK_S = 0.002  # timer/scheduler noise floor


@pytest.fixture(scope="module")
def problem():
    case = small_case()
    app = build_app(case.server, case.client)
    config = PlannerConfig(leveling=scenario("B").leveling())
    return config, Planner(config).compile(app, case.network)


def _raw_pipeline(config, problem):
    """The three phases exactly as the planner runs them, no facade."""
    plrg = build_plrg(problem)
    slrg = SLRG(problem, plrg, node_budget=config.slrg_node_budget)
    slrg.query(frozenset(problem.goal_prop_ids))
    return regression_search(
        problem,
        slrg.query,
        plrg.usable_actions,
        node_budget=config.rg_node_budget,
        branch_all_props=config.branch_all_props,
        prop_rank=plrg.cost,
    )


def _facade(config, problem):
    return Planner(config).solve(problem=problem)


def _time(fn, *args) -> float:
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def test_disabled_telemetry_overhead_under_3_percent(problem):
    config, compiled = problem
    solve_config = PlannerConfig(
        leveling=config.leveling, validate=False, telemetry=None
    )
    assert solve_config.telemetry is None  # the documented default

    # Warm-up: JIT-free Python still benefits from warm caches/allocator.
    _raw_pipeline(config, compiled)
    _facade(solve_config, compiled)

    last = ""
    for _attempt in range(ATTEMPTS):
        raws, facades = [], []
        for _ in range(ROUNDS):
            raws.append(_time(_raw_pipeline, config, compiled))
            facades.append(_time(_facade, solve_config, compiled))
        raw, facade = min(raws), min(facades)
        budget = raw * RELATIVE_SLACK + ABSOLUTE_SLACK_S
        if facade <= budget:
            return
        last = (
            f"facade {facade * 1e3:.2f} ms > budget {budget * 1e3:.2f} ms "
            f"(raw pipeline {raw * 1e3:.2f} ms)"
        )
    pytest.fail(f"disabled-telemetry overhead exceeds 3%: {last}")


def test_disabled_planner_allocates_no_telemetry_objects(problem):
    config, compiled = problem
    solve_config = PlannerConfig(leveling=config.leveling, validate=False)
    plan = Planner(solve_config).solve(problem=compiled)
    # No trace requested, no telemetry: the plan carries neither.
    assert plan.trace is None


class TestStreamingAndContextStayOff:
    """The fleet-observability hooks obey the same off-by-default bar.

    Streaming, trace context, and profiling all ride the existing worker
    job records and pipes — when nothing asks for them, no frames are
    produced, jobs carry ``trace=None``, and the snapshot that travels
    home is the empty frozen default (a near-free pickle).
    """

    def test_default_cell_task_carries_no_observability(self):
        from repro.obs import MetricsSnapshot
        from repro.parallel import CellTask, run_cell_task
        from repro.parallel.workers import _in_worker, _jobs

        task = CellTask(
            network="Tiny", scenario="B", source_bw=1.0, demand=1.0,
            rg_node_budget=10_000,
        )
        (job,) = _jobs([task], telemetry=None, compile_cache=None)
        assert job.trace is None
        assert task.profile is False
        assert job.with_metrics is False
        done = _in_worker(run_cell_task, job)
        assert done.value.profile == b""
        # from_telemetry(None) is the shared all-default instance.
        assert done.metrics == MetricsSnapshot()
        assert done.metrics.spans == () and done.metrics.trace_id == ""

    def test_harness_without_telemetry_sends_no_trace_context(self, monkeypatch):
        from repro.experiments import harness
        from repro.parallel import Supervisor

        seen = {}
        original = Supervisor.run

        def spy(self, fn, payloads, on_frame=None, stream_interval_s=None, **kwargs):
            seen["jobs"] = list(payloads)
            seen["on_frame"] = on_frame
            seen["stream_interval_s"] = stream_interval_s
            return original(self, fn, seen["jobs"], on_frame=on_frame,
                            stream_interval_s=stream_interval_s, **kwargs)

        monkeypatch.setattr(Supervisor, "run", spy)
        # Two cells: a one-cell sweep runs inline and never reaches a worker.
        harness.run_table2(("Tiny",), ("B", "C"), workers=2)
        assert len(seen["jobs"]) == 2
        assert all(
            j.trace is None and not j.task.profile and not j.with_metrics
            for j in seen["jobs"]
        )
        assert seen["on_frame"] is None and seen["stream_interval_s"] is None

    def test_empty_snapshot_pickle_is_tiny(self):
        import pickle

        from repro.obs import MetricsSnapshot

        empty = pickle.dumps(MetricsSnapshot())
        assert len(empty) < 256  # the per-task wire cost when telemetry is off
