"""Tests of the benchmark's own helpers.

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import gate  # noqa: E402
import quantiles  # noqa: E402
import spans  # noqa: E402


def test_p90_needs_ten_samples_beyond_it():
    assert quantiles.min_samples(90) == 100
    assert quantiles.percentile([float(i) for i in range(100)], 90) == pytest.approx(89.1)
    with pytest.raises(quantiles.TooFewSamples):
        quantiles.percentile([float(i) for i in range(99)], 90)


def test_tail_percentile_is_supported_by_the_shortest_run():
    import run

    assert quantiles.min_samples(run.TAIL) == 40
    assert quantiles.samples_beyond(40, run.TAIL) == 10


def test_self_time_excludes_a_nested_wrapped_call():
    now = [0.0]
    tracer = spans.Tracer(clock=lambda: now[0])

    def inner():
        now[0] += 4.0

    def outer(child):
        now[0] += 1.0
        child()
        now[0] += 5.0

    tracer.wrap(outer, "outer")(tracer.wrap(inner, "inner"))
    assert tracer.self_s["outer"] == 6.0
    assert tracer.incl_s["outer"] == 10.0
    assert tracer.self_s["inner"] == tracer.incl_s["inner"] == 4.0
    assert tracer.calls == {"outer": 1, "inner": 1}


def test_reentrant_span_counts_inclusive_time_once():
    now = [0.0]
    tracer = spans.Tracer(clock=lambda: now[0])

    def recurse(depth):
        now[0] += 1.0
        if depth:
            wrapped(depth - 1)
        now[0] += 1.0

    wrapped = tracer.wrap(recurse, "rec")
    wrapped(1)
    assert tracer.incl_s["rec"] == 4.0
    assert tracer.self_s["rec"] == 4.0
    assert tracer.calls["rec"] == 2


def test_gate_flags_a_perturbed_cost():
    expected = {"cost_lb": 12.0, "exact_cost": 71.7, "plan_len": 9, "mode": "hierarchical"}
    assert gate.mismatches(expected, dict(expected)) == []
    assert gate.mismatches(expected, {**expected, "exact_cost": 71.7 + 1e-15}) == []
    problems = gate.mismatches(expected, {**expected, "exact_cost": 71.7001})
    assert len(problems) == 1 and problems[0].startswith("exact_cost")
    assert gate.mismatches(expected, {**expected, "mode": "flat"})


def test_an_op_whose_check_raises_counts_as_failed():
    import run
    from inputs import Op

    runner = run.Runner()
    assert runner.measure(Op("ok", lambda: 1, lambda r: {"v": r}, {"v": 1})) == 1
    assert runner.measure(Op("raises", lambda: 1, lambda r: 1 / 0, {})) is None
    assert runner.measure(Op("wrong", lambda: 2, lambda r: {"v": r}, {"v": 1})) == 2
    runner.finish()
    assert runner.labels == ["ok", "raises", "wrong"]
    assert [f.split(":")[0] for f in runner.failures] == ["raises", "wrong"]
    assert runner.raw_ms[1] is None and len(runner.timed()) == 2
    assert len(runner.kernel_ms) == 4 and len(runner.busy_s) == 3


def test_host_factor_scales_by_the_kernel_times_around_an_op():
    import calibrate

    assert calibrate.factor(calibrate.REF_MS, calibrate.REF_MS) == 1.0
    slow = calibrate.factor(calibrate.REF_MS, 3 * calibrate.REF_MS)
    assert slow == pytest.approx(2.0 ** calibrate.SENSITIVITY)


def test_digest_check_refuses_an_altered_network():
    from repro.network import network_to_dict, pair_network

    net = pair_network(cpu=30.0, link_bw=70.0)
    pinned = gate.digest(network_to_dict(net))
    gate.check_digest("network", network_to_dict(net), pinned)
    link = next(iter(net.links.values()))
    link.resources["lbw"] = 69.0
    with pytest.raises(gate.InputDrift):
        gate.check_digest("network", network_to_dict(net), pinned)


def test_metric_names_match_benchmark_json():
    import run

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    per_layer = {name: (unit, better) for name, (unit, better, _v) in spans.PER_LAYER.items()}
    per_layer["trace.overhead_ms"] = ("ms", "lower")
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == per_layer
    from inputs import WORKLOADS

    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
