"""Unit tests for the command-line interface."""

import json
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.network import pair_network, save_network

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"


def _example_net(*path_and_value) -> str:
    """``examples/net.json`` with the one field at ``path`` set to ``value``."""
    *path, last, value = path_and_value
    data = json.loads((EXAMPLES / "net.json").read_text())
    entry = data
    for key in path:
        entry = entry[key]
    entry[last] = value
    return json.dumps(data)

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


class TestRunFailureReport:
    """``simulate`` and ``controller`` share one ``--json`` writer and one
    error report."""

    FAILED = {1: ("boom", "tb-1"), 3: ("bang", "tb-3")}

    def _raise_task_failed(self, *args, **kwargs):
        from repro.parallel import TaskFailed

        raise TaskFailed(1, "boom", "tb-1", failures=self.FAILED)

    @pytest.mark.parametrize(
        "command, module, name",
        [
            ("simulate", "repro.simulate.campaign", "run_campaign_run"),
            ("controller", "repro.simulate.controller", "run_controller"),
        ],
    )
    def test_task_failure_document(self, workdir, capsys, monkeypatch, command, module, name):
        import importlib

        monkeypatch.setattr(importlib.import_module(module), name, self._raise_task_failed)
        args = TestSimulate()._args(workdir)
        args[0] = command
        expected = json.dumps(
            {
                "error": "task_failed",
                "failed_indices": [1, 3],
                "failures": {
                    "1": {"message": "boom", "remote_traceback": "tb-1"},
                    "3": {"message": "bang", "remote_traceback": "tb-3"},
                },
            },
            indent=2,
            sort_keys=True,
        )

        assert main(args + ["--json", "-"]) == 1
        captured = capsys.readouterr()
        assert captured.out == expected + "\n"
        assert captured.err.startswith("task 1 failed in worker: boom")

        out_file = workdir / "failure.json"
        assert main(args + ["--json", str(out_file)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"wrote {out_file}\n")
        assert out_file.read_text() == expected + "\n"

    @pytest.mark.parametrize("command", ["simulate", "controller"])
    def test_bad_campaign_is_one_stderr_line(self, workdir, capsys, command):
        args = TestSimulate()._args(workdir)
        args[0] = command
        for spec, message in (
            ({"faults": {"bogus": 1}}, "invalid campaign fault model: "),
            ({"events": [{"kind": "nope"}]}, "invalid campaign event: "),
        ):
            campaign = workdir / "campaign.json"
            campaign.write_text(json.dumps(spec))
            assert main(args + ["--campaign", str(campaign)]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(message)
            assert captured.err.count("\n") == 1


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

    def test_fanned_profile_out_writes_per_pid_files_without_metrics(
        self, tmp_path, capsys
    ):
        import pstats

        prefix = tmp_path / "prof.bench"
        rc = main([
            "bench", "--networks", "Tiny", "--scenarios", "B", "C", "D",
            "--workers", "2", "--profile-out", str(prefix),
        ])
        assert rc == 0
        # the merged file plus one per worker pid
        assert "wrote 3 profile file(s)" in capsys.readouterr().err
        per_pid = sorted(tmp_path.glob("prof.bench.pid*.pstats"))
        assert len(per_pid) == 2
        assert all(pstats.Stats(str(path)).total_calls > 0 for path in per_pid)


def _plan_args(workdir, *extra):
    return [
        "plan",
        "--network", str(workdir / "net.json"),
        "--spec", str(workdir / "app.spec"),
        "--initial", "Server=n0",
        "--goal", "Client=n1",
        "--levels", "M.ibw=90,100",
        *extra,
    ]


class TestBadInput:
    """Bad flag values and unreadable files are usage errors, not tracebacks."""

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--levels", "M.ibw=abc"),
            ("--levels", "M.ibw=100,90"),
            ("--levels", "M.ibw"),
            ("--initial", "Server@n0"),
            ("--goal", "Client"),
        ],
    )
    def test_bad_flag_value_exits_two(self, workdir, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(_plan_args(workdir, flag, value))
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: expected " in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "command, flag",
        [
            ("plan", "--network"),
            ("plan", "--spec"),
            ("lint", "--spec"),
            ("simulate", "--campaign"),
        ],
    )
    def test_unreadable_file_is_one_stderr_line(self, workdir, capsys, command, flag):
        absent = workdir / "absent.json"
        args = _plan_args(workdir, flag, str(absent))
        args[0] = command
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"repro: cannot read {absent}: No such file or directory\n"


    @pytest.mark.parametrize(
        "command, flag, text, reason",
        [
            ("lint", "--network", "{", "Expecting property name enclosed in double quotes"),
            ("plan", "--network", '{"format": 99}', "unsupported network format version 99"),
            ("plan", "--spec", "<interface>\n", "line 1: <interface> needs a name attribute"),
            ("plan", "--spec", "<component name=A>\n<effects>\nNode.cpu -= (\n", "unexpected token"),
            ("simulate", "--campaign", "{", "Expecting property name enclosed in double quotes"),
            ("controller", "--campaign", "{", "Expecting property name enclosed in double quotes"),
            ("lint", "--network", "[]", "a network must be a JSON object, got list"),
            ("lint", "--network", '{"format": 1, "nodes": [{"resources": {}}]}', 'node 0 must be'),
            (
                "plan",
                "--network",
                '{"format": 1, "nodes": [{"id": "n0"}, {"id": "n1"}], "links": [{"a": "n0"}]}',
                'link 0 must be an object with "a" and "b"',
            ),
            (
                "lint",
                "--network",
                '{"format": 1, "nodes": [{"id": "n0", "resources": [1]}]}',
                'node 0 "resources" must be an object, got list',
            ),
            (
                "plan",
                "--network",
                '{"format": 1, "nodes": [{"id": "n0"}, {"id": "n1"}],'
                ' "links": [{"a": "n0", "b": "n1", "resources": 5}]}',
                'link 0 "resources" must be an object, got int',
            ),
            ("simulate", "--campaign", "[]", "a campaign must be a JSON object, got list"),
            ("controller", "--campaign", "3", "a campaign must be a JSON object, got int"),
            (
                "plan",
                "--network",
                _example_net("nodes", 0, "id", ["n0"]),
                'node 0 "id" must be a string, got list',
            ),
            (
                "plan",
                "--network",
                _example_net("nodes", 1, "labels", 5),
                'node 1 "labels" must be a list, got int',
            ),
            (
                "plan",
                "--network",
                _example_net("links", None),
                'network "links" must be a list, got NoneType',
            ),
            (
                "plan",
                "--network",
                _example_net("nodes", 0, "resources", "cpu", "x"),
                'node 0 resource "cpu" must be a number, got str',
            ),
            (
                "plan",
                "--network",
                _example_net("links", 0, "resources", "lbw", None),
                'link 0 resource "lbw" must be a number, got NoneType',
            ),
        ],
        ids=[
            "bad-json", "network-format", "spec-syntax", "spec-formula",
            "simulate-campaign-json", "controller-campaign-json",
            "network-not-object", "network-node-without-id", "network-link-without-ends",
            "network-node-resources", "network-link-resources",
            "simulate-campaign-not-object", "controller-campaign-not-object",
            "network-node-id-list", "network-node-labels-int", "network-links-null",
            "network-resource-string", "network-resource-null",
        ],
    )
    def test_unparsable_file_is_one_stderr_line(
        self, workdir, capsys, command, flag, text, reason
    ):
        bad = workdir / "bad.input"
        bad.write_text(text)
        args = _plan_args(workdir, flag, str(bad))
        args[0] = command
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"repro: cannot parse {bad}: ")
        assert reason in captured.err
        assert captured.err.count("\n") == 1


class TestSpecSpelling:
    def test_app_name_ignores_how_the_spec_path_is_spelled(
        self, workdir, capsys, monkeypatch
    ):
        # The app is named after the spec's file name, so the record and
        # the checkpoint fingerprint (which --resume checks) are the same
        # however the path is typed.
        monkeypatch.chdir(workdir)
        records, fingerprints = [], []
        for i, spelling in enumerate(("app.spec", "./app.spec", str(workdir / "app.spec"))):
            journal = workdir / f"journal{i}.jsonl"
            args = TestController()._args(workdir, "--json", "-", "--checkpoint", str(journal))
            args[args.index("--spec") + 1] = spelling
            assert main(args) == 0
            records.append(capsys.readouterr().out)
            header = json.loads(journal.read_text().splitlines()[0])
            fingerprints.append(header["fingerprint"])
        assert records[0] == records[1] == records[2]
        assert fingerprints[0] == fingerprints[1] == fingerprints[2]
        record = json.loads(records[0][records[0].index("{"):])
        assert record["fleet"] == ["app.spec-0", "app.spec-1"]


def test_every_opened_file_is_closed(workdir, capsys):
    import warnings

    campaign = workdir / "campaign.json"
    campaign.write_text(json.dumps({"faults": {"seed": 2, "events": 2}}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        assert main(_plan_args(workdir, "--json", str(workdir / "plan.json"))) == 0
        for command in ("simulate", "controller"):
            args = _plan_args(workdir, "--campaign", str(campaign))
            args[0] = command
            assert main(args) == 0
        assert main(["gen-network", "--stub-size", "2", "-o", str(workdir / "gen.json")]) == 0
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []
