"""Diagnostics, JSON artifacts, and the ``repro analyze`` subcommand."""

import json

from repro.__main__ import main
from repro.analysis import analyze_problem


def _codes(report):
    return {d.code for d in report.diagnostics}


def test_diamond_report_codes(diamond_problem):
    ana = analyze_problem(diamond_problem)
    report = ana.to_report()
    codes = _codes(report)
    assert "ENV001" in codes
    assert "SYM001" in codes  # mid_a ~ mid_b
    assert "DEAD001" not in codes  # the media chain has no dead actions


def test_dead_report_codes(dead_problem):
    ana = analyze_problem(dead_problem)
    codes = _codes(ana.to_report())
    assert "DEAD001" in codes
    assert "ENV001" in codes


def test_report_json_roundtrip(dead_problem):
    report = analyze_problem(dead_problem).to_report()
    wire = json.loads(report.to_json())
    assert {d["code"] for d in wire["diagnostics"]} == _codes(report)


def test_payload_is_json_serializable(diamond_problem, dead_problem):
    for problem in (diamond_problem, dead_problem):
        ana = analyze_problem(problem)
        wire = json.loads(json.dumps(ana.to_payload()))
        assert wire["actions"]["total"] == len(problem.actions)
        assert wire["actions"]["dead"] == len(ana.dead)
        assert isinstance(wire["diagnostics"], list)
        assert "partner_edges" in wire["symmetry"]


def test_render_text_mentions_counts(dead_problem):
    text = analyze_problem(dead_problem).render_text()
    assert "2/5 action(s) dead" in text
    assert "DEAD001" in text


_EXAMPLE_ARGS = [
    "analyze",
    "--network", "examples/net.json",
    "--spec", "examples/app.spec",
    "--initial", "Server=n0",
    "--goal", "Client=n1",
    "--levels", "M.ibw=90,100",
]


def test_cli_analyze_text(capsys):
    assert main(_EXAMPLE_ARGS) == 0
    out = capsys.readouterr().out
    assert "analyze" in out
    assert "ENV001" in out


def test_cli_analyze_json(capsys):
    assert main(_EXAMPLE_ARGS + ["--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["actions"]["total"] > 0
    assert "envelopes" in payload


def test_cli_analyze_json_is_deterministic(capsys):
    outputs = []
    for _ in range(2):
        assert main(_EXAMPLE_ARGS + ["--format", "json"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_cli_analyze_requires_instance():
    assert main(["analyze"]) == 2
