"""Unit tests for exact forward execution."""

import pytest

from repro.compile import compile_problem
from repro.domains.media import build_app, proportional_leveling
from repro.network import pair_network
from repro.planner import ExecutionError, Planner, PlannerConfig, execute_plan


@pytest.fixture
def solved():
    net = pair_network(cpu=30.0, link_bw=70.0)
    app = build_app("n0", "n1")
    plan = Planner(PlannerConfig(leveling=proportional_leveling((90, 100)))).solve(app, net)
    return plan


class TestReports:
    def test_greedy_concretization_processes_level_cap(self, solved):
        report = solved.execute()
        # Level [90,100): the concretizer pushes 100 units (paper §4.2).
        assert report.value("ibw:M@n1") == pytest.approx(100.0)

    def test_exact_cost_at_cap_values(self, solved):
        report = solved.execute()
        # splitter 11 + zip 8 + crossZ 4.5 + crossI 4 + unzip 4.5 +
        # merger 11 + client 1 = 44 at the 100-unit concretization.
        assert report.total_cost == pytest.approx(44.0)

    def test_exact_cost_at_least_lower_bound(self, solved):
        assert solved.execute().total_cost >= solved.cost_lb - 1e-9

    def test_resource_consumption_tracked(self, solved):
        report = solved.execute()
        # CPU at n0: splitter 20 + zip 7 = 27 of 30.
        assert report.consumed["cpu@n0"] == pytest.approx(27.0)
        # Link: Z (35) + I (30) = 65 of 70.
        assert report.consumed["lbw@n0~n1"] == pytest.approx(65.0)

    def test_max_consumed(self, solved):
        report = solved.execute()
        assert report.max_consumed({"lbw@n0~n1"}) == pytest.approx(65.0)
        assert report.max_consumed(set()) == 0.0

    def test_steps_record_values(self, solved):
        report = solved.execute()
        assert len(report.steps) == len(solved.actions)
        splitter_step = report.steps[0]
        assert splitter_step.inputs["M.ibw"] == pytest.approx(100.0)
        assert splitter_step.cost == pytest.approx(11.0)


class TestFailures:
    def test_missing_input_stream(self, solved):
        # Execute the merger without its inputs.
        merger = [a for a in solved.actions if a.subject == "Merger"]
        with pytest.raises(ExecutionError) as exc:
            execute_plan(solved.problem, merger)
        assert "not available" in str(exc.value)

    def test_condition_violation_detected(self):
        net = pair_network(cpu=1000.0, link_bw=70.0)
        app = build_app("n0", "n1")
        problem = compile_problem(app, net, proportional_leveling((90, 100)))
        cross = next(
            a for a in problem.actions if a.name == "cross(M,n0->n1)[M.ibw=0]"
        )
        client = next(
            a for a in problem.actions if a.name == "place(Client,n1)[M.ibw=1]"
        )
        with pytest.raises(ExecutionError):
            # Only 70 units arrive; the client needs at least 90.
            execute_plan(problem, [cross, client])

    def test_cpu_overdraw_detected(self):
        net = pair_network(cpu=30.0, link_bw=1000.0)
        app = build_app("n0", "n1")
        problem = compile_problem(app, net, proportional_leveling((90, 100)))
        splitter = next(
            a for a in problem.actions if a.name == "place(Splitter,n0)[M.ibw=1]"
        )
        zipper = next(
            a for a in problem.actions if a.name == "place(Zip,n0)[T.ibw=1]"
        )
        with pytest.raises(ExecutionError):
            execute_plan(problem, [splitter, zipper, zipper])

    def test_empty_plan_executes(self, solved):
        report = execute_plan(solved.problem, [])
        assert report.total_cost == 0.0 and not report.steps
