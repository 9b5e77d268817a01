"""CLI tests for --trace-out / --trace-format / --metrics and trace summarize."""

import json

import pytest

from repro.__main__ import main
from repro.network import pair_network, save_network

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


@pytest.fixture
def workdir(tmp_path):
    save_network(pair_network(cpu=100.0, link_bw=120.0), tmp_path / "net.json")
    (tmp_path / "app.spec").write_text(SPEC)
    return tmp_path


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


class TestPlanTraceFlags:
    def test_trace_out_jsonl_default(self, workdir, capsys):
        out = workdir / "t.jsonl"
        rc = main(_plan_args(workdir, "--trace-out", str(out)))
        assert rc == 0
        assert f"wrote {out} (jsonl," in capsys.readouterr().err
        first = json.loads(out.read_text().splitlines()[0])
        # The header also carries the run's trace_id and writer pid.
        assert first.pop("trace_id")
        assert first.pop("pid") > 0
        assert first == {
            "type": "header",
            "format": "repro-trace-jsonl",
            "version": 1,
            "generator": "repro",
            "runs": 1,
        }

    def test_trace_out_chrome(self, workdir, capsys):
        out = workdir / "t.json"
        rc = main(_plan_args(workdir, "--trace-out", str(out), "--trace-format", "chrome"))
        assert rc == 0
        payload = json.loads(out.read_text())
        assert any(ev["ph"] == "X" and ev["name"] == "rg" for ev in payload["traceEvents"])
        assert payload["otherData"]["format"] == "repro-trace-chrome"

    def test_metrics_flag_prints_report(self, workdir, capsys):
        rc = main(_plan_args(workdir, "--metrics"))
        out = capsys.readouterr().out
        assert rc == 0
        assert "phase spans:" in out
        assert "search trace summary:" in out

    def test_plain_plan_prints_no_telemetry(self, workdir, capsys):
        rc = main(_plan_args(workdir))
        out = capsys.readouterr().out
        assert rc == 0
        assert "phase spans:" not in out
        assert "wrote" not in out

    def test_bad_trace_format_rejected(self, workdir):
        with pytest.raises(SystemExit):
            main(_plan_args(workdir, "--trace-out", "x", "--trace-format", "xml"))


class TestTraceSummarize:
    def test_summarize_jsonl(self, workdir, capsys):
        out = workdir / "t.jsonl"
        assert main(_plan_args(workdir, "--trace-out", str(out))) == 0
        capsys.readouterr()
        rc = main(["trace", "summarize", str(out)])
        text = capsys.readouterr().out
        assert rc == 0
        assert "trace file: jsonl format" in text
        assert "planner stats (Table 2 view)" in text
        assert "search events:" in text

    def test_summarize_chrome(self, workdir, capsys):
        out = workdir / "t.json"
        assert (
            main(_plan_args(workdir, "--trace-out", str(out), "--trace-format", "chrome"))
            == 0
        )
        capsys.readouterr()
        rc = main(["trace", "summarize", str(out)])
        text = capsys.readouterr().out
        assert rc == 0
        assert "trace file: chrome format" in text
        assert "search events:" in text

    def test_summarize_invalid_file_exits_one(self, workdir, capsys):
        bad = workdir / "bad.jsonl"
        bad.write_text("definitely not a trace\n")
        rc = main(["trace", "summarize", str(bad)])
        assert rc == 1
        assert "invalid trace file" in capsys.readouterr().err

    def test_summarize_missing_file_exits_one(self, workdir, capsys):
        rc = main(["trace", "summarize", str(workdir / "absent.jsonl")])
        assert rc == 1
        assert "invalid trace file" in capsys.readouterr().err
