"""Unit tests for infeasibility diagnosis."""

import pytest

from repro.compile import compile_problem, diagnose
from repro.domains import media
from repro.network import Network, pair_network
from repro.planner import Planner, PlannerConfig, ResourceInfeasible


def _thin_problem():
    """A client node reachable only through a 10-bandwidth dead end."""
    net = Network("thin")
    net.add_node("n0", {"cpu": 30.0})
    net.add_node("n1", {"cpu": 30.0}, software=[])  # nothing placeable
    net.add_node("n2", {"cpu": 30.0}, software=["Client"])
    net.add_link("n0", "n1", {"lbw": 10.0})
    net.add_link("n1", "n2", {"lbw": 10.0})
    return compile_problem(
        media.build_app("n0", "n2"),
        net,
        media.proportional_leveling((90, 100)),
    )


class TestDiagnose:
    def test_greedy_scenario_explained(self):
        """Scenario A on Tiny: the Client's demand condition is named,
        with the best achievable bandwidth (70) shown."""
        problem = compile_problem(
            media.build_app("n0", "n1"),
            pair_network(cpu=30.0, link_bw=70.0),
            media.proportional_leveling(()),
        )
        text = str(diagnose(problem))
        assert "placed(Client,n1)" in text
        assert "M.ibw >= 90" in text
        assert "70" in text

    def test_feasible_problem_reports_support(self):
        problem = compile_problem(
            media.build_app("n0", "n1"),
            pair_network(cpu=30.0, link_bw=70.0),
            media.proportional_leveling((90, 100)),
        )
        text = str(diagnose(problem))
        assert "supported by" in text
        assert "pruned" not in text

    def test_unreachable_stream_explained(self):
        """A client whose node is only reachable via a dead-end: the
        diagnosis points at the unreachable input stream."""
        text = str(diagnose(_thin_problem()))
        assert "placed(Client,n2)" in text
        # Every client placement fails on level floor or unreachability.
        assert "pruned" in text or "unreachable" in text

    def test_level_floor_report(self):
        """The level-floor reason, pinned verbatim: each committed floor
        against the best value that reaches the client."""
        assert str(diagnose(_thin_problem())) == (
            "- goal placed(Client,n2): all 2 placements pruned:\n"
            "-   place(Client,n2)[M.ibw=1]: committed level needs at least 90 of ibw:M@n2,"
            " but at most 10 can reach it\n"
            "-   place(Client,n2)[M.ibw=2]: committed level needs at least 100 of ibw:M@n2,"
            " but at most 10 can reach it"
        )

    def test_planner_error_carries_diagnosis(self):
        with pytest.raises(ResourceInfeasible) as exc:
            Planner(
                PlannerConfig(leveling=media.proportional_leveling(()))
            ).solve(
                media.build_app("n0", "n1"),
                pair_network(cpu=30.0, link_bw=70.0),
            )
        assert "M.ibw >= 90" in str(exc.value)
