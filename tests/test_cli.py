"""Unit tests for the command-line interface."""

import json
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.network import pair_network, save_network

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"

SPEC = """
<interface name=M>
<cross_effects>
M.ibw' := min(M.ibw, Link.lbw)
Link.lbw' -= min(M.ibw, Link.lbw)
<cost>
1 + M.ibw/10

<component name=Server>
<linkages>
<implements>
<interface name=M>
<effects>
M.ibw := 200

<component name=Client>
<linkages>
<requires>
<interface name=M>
<conditions>
M.ibw >= 90
<cost>
1
"""


BROKEN_SPEC = """
<interface name=M>
<cross_effects>
M.ibw' := min(M.ibw, Link.lbw)
Link.lbw' -= min(M.ibw, Link.lbw)

<interface name=Dead>

<component name=Server>
<linkages>
<implements>
<interface name=M>
<effects>
M.ibw := 100
Node.cpu -= Node.cpu * Node.cpu / 1000

<component name=Greedy>
<linkages>
<requires>
<interface name=M>
<conditions>
M.ibw >= 100000

<component name=Client>
<linkages>
<requires>
<interface name=M>
<conditions>
M.ibw >= 90
"""


@pytest.fixture
def workdir(tmp_path):
    save_network(pair_network(cpu=100.0, link_bw=120.0), tmp_path / "net.json")
    (tmp_path / "app.spec").write_text(SPEC)
    (tmp_path / "broken.spec").write_text(BROKEN_SPEC)
    return tmp_path


class TestPlan:
    def test_plan_success(self, workdir, capsys):
        rc = main(
            [
                "plan",
                "--network", str(workdir / "net.json"),
                "--spec", str(workdir / "app.spec"),
                "--initial", "Server=n0",
                "--goal", "Client=n1",
                "--levels", "M.ibw=90,100",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "place Client on node n1" in out
        assert "cost lower bound" in out

    def test_plan_json_output(self, workdir, capsys):
        out_file = workdir / "plan.json"
        rc = main(
            [
                "plan",
                "--network", str(workdir / "net.json"),
                "--spec", str(workdir / "app.spec"),
                "--initial", "Server=n0",
                "--goal", "Client=n1",
                "--levels", "M.ibw=90,100",
                "--json", str(out_file),
            ]
        )
        assert rc == 0
        payload = json.loads(out_file.read_text())
        assert payload["actions"]
        assert payload["exact_cost"] >= payload["cost_lower_bound"] - 1e-9

    def test_plan_failure_exit_code(self, workdir, tmp_path, capsys):
        save_network(pair_network(cpu=1.0, link_bw=10.0), tmp_path / "weak.json")
        rc = main(
            [
                "plan",
                "--network", str(tmp_path / "weak.json"),
                "--spec", str(workdir / "app.spec"),
                "--initial", "Server=n0",
                "--goal", "Client=n1",
            ]
        )
        assert rc == 1
        assert "no plan" in capsys.readouterr().err

    def test_bad_placement_syntax(self, workdir):
        with pytest.raises(SystemExit):
            main(
                [
                    "plan",
                    "--network", str(workdir / "net.json"),
                    "--spec", str(workdir / "app.spec"),
                    "--initial", "Server@n0",
                    "--goal", "Client=n1",
                ]
            )


class TestLint:
    def _broken_args(self, workdir):
        return [
            "lint",
            "--network", str(workdir / "net.json"),
            "--spec", str(workdir / "broken.spec"),
            "--initial", "Server=n0",
            "--goal", "Client=nowhere",
            "--levels", "M.ibw=90,400", "Bogus.var=10",
        ]

    def test_clean_spec_exits_zero(self, workdir, capsys):
        rc = main(
            [
                "lint",
                "--network", str(workdir / "net.json"),
                "--spec", str(workdir / "app.spec"),
                "--initial", "Server=n0",
                "--goal", "Client=n1",
                "--levels", "M.ibw=90,100",
            ]
        )
        assert rc == 0
        assert "clean" in capsys.readouterr().out

    def test_broken_spec_text_output(self, workdir, capsys):
        rc = main(self._broken_args(workdir))
        out = capsys.readouterr().out
        assert rc == 1
        # The deliberately broken spec: a non-monotone effect, a level
        # gap, an unplaceable component, and an unknown placement node.
        assert "MONO001" in out and "component Server, effects[1]" in out
        assert "LVL002" in out and "leveling M.ibw" in out
        assert "REACH002" in out and "component Greedy" in out
        assert "NET001" in out and "nowhere" in out

    def test_broken_spec_json_output(self, workdir, capsys):
        rc = main(self._broken_args(workdir) + ["--format", "json"])
        assert rc == 1
        payload = json.loads(capsys.readouterr().out)
        codes = {d["code"] for d in payload["diagnostics"]}
        assert {"MONO001", "LVL002", "REACH002", "NET001"} <= codes
        assert len(codes) >= 4
        by_code = {d["code"]: d["location"] for d in payload["diagnostics"]}
        assert by_code["MONO001"]["name"] == "Server"
        assert by_code["LVL002"] == {"kind": "leveling", "name": "M.ibw"}
        assert payload["summary"]["errors"] >= 1

    def test_werror_fails_on_warnings(self, workdir, capsys):
        args = [
            "lint",
            "--network", str(workdir / "net.json"),
            "--spec", str(workdir / "app.spec"),
            "--initial", "Server=n0",
            "--goal", "Client=n1",
            "--levels", "M.ibw=90,100", "Bogus.var=10",
        ]
        assert main(args) == 0  # LVL001 is a warning
        assert main(args + ["--werror"]) == 1

    def test_plan_strict_refuses_broken_spec(self, workdir, capsys):
        args = self._broken_args(workdir)
        args[0] = "plan"
        rc = main(args + ["--strict"])
        assert rc == 1
        assert "strict lint" in capsys.readouterr().err


class TestGenNetwork:
    def test_generate_to_file(self, tmp_path, capsys):
        out = tmp_path / "net.json"
        rc = main(["gen-network", "--stub-size", "2", "-o", str(out)])
        assert rc == 0
        data = json.loads(out.read_text())
        assert data["nodes"]

    def test_generate_stdout(self, capsys):
        rc = main(["gen-network", "--stub-size", "2"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data["nodes"]) == 3 + 3 * 3 * 2

    def test_deterministic_by_seed(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["gen-network", "--seed", "5", "-o", str(a)])
        main(["gen-network", "--seed", "5", "-o", str(b)])
        assert a.read_text() == b.read_text()


class TestTable2:
    def test_tiny_subset(self, capsys):
        rc = main(["table2", "--networks", "Tiny", "--scenarios", "A", "B"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Scenario" in out  # Table 1 header
        assert "ResourceInfeasible" in out  # the A row
        assert "Tiny" in out


class TestPlanRobustness:
    def test_fallback_reports_winning_rung(self, workdir, capsys):
        rc = main(
            [
                "plan",
                "--network", str(workdir / "net.json"),
                "--spec", str(workdir / "app.spec"),
                "--initial", "Server=n0",
                "--goal", "Client=n1",
                "--levels", "M.ibw=90,100",
                "--time-limit", "30",
                "--fallback",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "rung 'full'" in out
        assert "place Client on node n1" in out

    def test_fallback_failure_exits_nonzero(self, workdir, tmp_path, capsys):
        save_network(pair_network(cpu=1.0, link_bw=10.0), tmp_path / "weak.json")
        rc = main(
            [
                "plan",
                "--network", str(tmp_path / "weak.json"),
                "--spec", str(workdir / "app.spec"),
                "--initial", "Server=n0",
                "--goal", "Client=n1",
                "--fallback",
            ]
        )
        captured = capsys.readouterr()
        assert rc == 1
        assert "every ladder rung failed" in captured.err
        assert "failed" in captured.out  # the attempt history is shown

    def _example_args(self, *extra):
        return [
            "plan",
            "--network", str(EXAMPLES / "net.json"),
            "--spec", str(EXAMPLES / "app.spec"),
            "--initial", "Server=n0",
            "--goal", "Client=n1",
            "--levels", "M.ibw=90,100",
            *extra,
        ]

    def test_hierarchical_falls_back_to_flat(self, capsys):
        # examples/net.json is not transit-stub shaped: the hierarchical
        # rung misses on the partition and the full network plans.
        rc = main(self._example_args("--hierarchical"))
        out = capsys.readouterr().out
        assert rc == 0
        lines = out.splitlines()
        assert lines[0].startswith("hierarchical: failed (PartitionError)")
        assert lines[1].startswith("full: ok")
        assert "place Client on node n1" in out

    def test_fallback_and_hierarchical_compose(self, capsys):
        rc = main(self._example_args("--fallback", "--hierarchical"))
        out = capsys.readouterr().out
        assert rc == 0
        lines = out.splitlines()
        assert lines[0].startswith("hierarchical: failed (PartitionError)")
        assert lines[1].startswith("full: ok")
        assert "rung 'full'" in out
        assert "place Client on node n1" in out


class TestSimulate:
    def _args(self, workdir, *extra):
        return [
            "simulate",
            "--network", str(workdir / "net.json"),
            "--spec", str(workdir / "app.spec"),
            "--initial", "Server=n0",
            "--goal", "Client=n1",
            "--levels", "M.ibw=90,100",
            *extra,
        ]

    def test_generated_campaign_runs(self, workdir, capsys):
        rc = main(self._args(workdir, "--seed", "3", "--events", "8"))
        out = capsys.readouterr().out
        assert rc == 0
        assert "initial deployment" in out
        assert "availability" in out

    def test_json_record_is_deterministic(self, workdir, capsys):
        args = self._args(workdir, "--seed", "3", "--events", "8", "--json", "-")
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first

    def test_campaign_spec_file(self, workdir, capsys):
        campaign = workdir / "campaign.json"
        campaign.write_text(
            json.dumps(
                {
                    "faults": {"seed": 2, "events": 6},
                    "injector": {"rate": 1.0, "max_failures": 1, "seed": 0},
                    "retry": {"max_attempts": 3, "base_backoff_s": 0.05},
                }
            )
        )
        out_file = workdir / "record.json"
        rc = main(self._args(workdir, "--campaign", str(campaign), "--json", str(out_file)))
        assert rc == 0
        record = json.loads(out_file.read_text())
        assert len(record["steps"]) <= 6
        assert record["summary"]["transient_failures"] >= 1

    def test_explicit_event_timeline(self, workdir, capsys):
        campaign = workdir / "campaign.json"
        campaign.write_text(
            json.dumps(
                {
                    "events": [
                        {"kind": "link-change", "a": "n0", "b": "n1",
                         "resource": "lbw", "value": 100.0},
                        {"kind": "node-change", "node": "n1",
                         "resource": "cpu", "value": 50.0},
                    ]
                }
            )
        )
        out_file = workdir / "record.json"
        rc = main(self._args(workdir, "--campaign", str(campaign), "--json", str(out_file)))
        assert rc == 0
        record = json.loads(out_file.read_text())
        assert [s["event"]["kind"] for s in record["steps"]] == [
            "link-change", "node-change"
        ]

    def test_multi_seed_document(self, workdir, capsys):
        campaign = workdir / "campaign.json"
        campaign.write_text(json.dumps({"faults": {"events": 4}}))
        out_file = workdir / "runs.json"
        rc = main(self._args(
            workdir, "--campaign", str(campaign),
            "--seeds", "3", "7", "--json", str(out_file),
        ))
        out = capsys.readouterr().out
        assert rc == 0
        assert "--- seed 3 ---" in out and "--- seed 7 ---" in out
        doc = json.loads(out_file.read_text())
        assert doc["format"] == 1
        assert [r["seed"] for r in doc["runs"]] == [3, 7]
        for run in doc["runs"]:
            assert "steps" in run["record"]


class TestController:
    def _args(self, workdir, *extra):
        return [
            "controller",
            "--network", str(workdir / "net.json"),
            "--spec", str(workdir / "app.spec"),
            "--initial", "Server=n0",
            "--goal", "Client=n1",
            "--levels", "M.ibw=90,100",
            "--fleet", "2",
            "--seed", "3",
            "--events", "4",
            *extra,
        ]

    def test_controller_runs_fleet(self, workdir, capsys):
        rc = main(self._args(workdir))
        out = capsys.readouterr().out
        assert rc == 0
        assert "fleet 2, events 4" in out
        assert "repair compiles" in out

    def test_json_record_shape(self, workdir, capsys):
        out_file = workdir / "controller.json"
        rc = main(self._args(workdir, "--json", str(out_file)))
        assert rc == 0
        record = json.loads(out_file.read_text())
        assert len(record["fleet"]) == 2
        assert len(record["steps"]) == 4
        assert record["summary"]["repairs"] == 8

    def test_delta_flag_keeps_record_identical(self, workdir, capsys):
        plain, delta = workdir / "plain.json", workdir / "delta.json"
        assert main(self._args(workdir, "--json", str(plain))) == 0
        assert main(self._args(workdir, "--delta", "--json", str(delta))) == 0
        capsys.readouterr()
        a = json.loads(plain.read_text())
        b = json.loads(delta.read_text())
        for rec in (a, b):
            for key in ("delta_hits", "delta_full"):
                rec["summary"].pop(key)
        assert a == b

    def test_stdout_deterministic_across_runs(self, workdir, capsys):
        args = self._args(workdir, "--json", "-")
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first


class TestBench:
    def test_serial_quick_cells_with_cache(self, tmp_path, capsys):
        out_file = tmp_path / "bench.json"
        rc = main([
            "bench", "--networks", "Tiny", "--scenarios", "B", "C",
            "--rounds", "2", "--json", str(out_file),
        ])
        assert rc == 0
        assert "best:" in capsys.readouterr().out
        payload = json.loads(out_file.read_text())
        assert payload["workers"] == 1
        assert len(payload["rounds_s"]) == 2
        # round 1 re-solves the same cells through the warm cache
        assert payload["cache"]["hits"] >= 2
        assert [c["scenario"] for c in payload["cells"]] == ["B", "C"]
        assert all(c["solved"] for c in payload["cells"])

    def test_profile_out_writes_merged_pstats(self, tmp_path, capsys):
        import pstats

        prefix = tmp_path / "prof.bench"
        rc = main([
            "bench", "--networks", "Tiny", "--scenarios", "B",
            "--profile-out", str(prefix),
        ])
        assert rc == 0
        assert "wrote 1 profile file(s)" in capsys.readouterr().err
        assert pstats.Stats(str(prefix)).total_calls > 0
