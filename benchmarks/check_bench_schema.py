"""Validate ``BENCH_*.json`` benchmark files and exported trace files.

Usage: ``python benchmarks/check_bench_schema.py [FILE ...]`` — with no
arguments, validates every ``BENCH_*.json`` in the repository root.  The
file kind is auto-detected: Chrome trace-event JSON (a ``traceEvents``
object), JSONL trace streams (one typed record per line), and benchmark
result files.  Trace files are checked against the committed schemas in
``benchmarks/schemas/``; the checks are structural (required keys, types,
internal consistency), not a timing gate: CI machines are too noisy to
assert speedups.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

_SCHEMA_DIR = Path(__file__).resolve().parent / "schemas"

_CELL_KEYS = {
    "network": str,
    "scenario": str,
    "interpreted_rg_ms": (int, float),
    "compiled_rg_ms": (int, float),
    "speedup": (int, float),
    "rg_nodes": int,
    "replays": int,
    "actions_replayed": int,
    "plan_len": int,
    "cost_lb": (int, float),
    "exact_cost": (int, float),
}
_TOP_KEYS = {
    "bench": str,
    "timestamp": str,
    "python": str,
    "rounds": int,
    "quick": bool,
    "cells": list,
}

# Type tags used by the trace schemas (a trailing '?' allows null).
_TYPE_TAGS = {
    "string": str,
    "integer": int,
    "number": (int, float),
    "boolean": bool,
    "object": dict,
    "array": list,
}


def _check_fields(record: dict, spec: dict, where: str) -> list[str]:
    """Check one record against a ``{required, optional}`` field spec."""
    errors = []
    for name in spec.get("required", {}):
        if name not in record:
            errors.append(f"{where}: missing required field {name!r}")
    for source in ("required", "optional"):
        for name, tag in spec.get(source, {}).items():
            if name not in record:
                continue
            value = record[name]
            nullable = tag.endswith("?")
            expected = _TYPE_TAGS[tag.rstrip("?")]
            if value is None:
                if not nullable:
                    errors.append(f"{where}: field {name!r} must not be null")
            elif not isinstance(value, expected) or (
                expected is int and isinstance(value, bool)
            ):
                errors.append(
                    f"{where}: field {name!r} should be {tag}, "
                    f"got {type(value).__name__}"
                )
    return errors


def _load_schema(name: str) -> dict:
    return json.loads((_SCHEMA_DIR / name).read_text())


def check_trace_jsonl(path: Path, text: str) -> list[str]:
    """Validate a JSONL trace export against the committed schema."""
    schema = _load_schema("trace_jsonl.schema.json")
    records = schema["records"]
    errors: list[str] = []
    first_type: str | None = None
    seen_types: set[str] = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        where = f"{path}:{lineno}"
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            errors.append(f"{where}: not JSON ({exc})")
            continue
        if not isinstance(record, dict) or "type" not in record:
            errors.append(f"{where}: record without a 'type' field")
            continue
        rtype = record["type"]
        if first_type is None:
            first_type = rtype
        seen_types.add(rtype)
        spec = records.get(rtype)
        if spec is None:
            errors.append(f"{where}: unknown record type {rtype!r}")
            continue
        errors.extend(_check_fields(record, spec, where))
        if rtype == "header" and record.get("format") != schema["format"]:
            errors.append(
                f"{where}: header format {record.get('format')!r} != "
                f"{schema['format']!r}"
            )
    if first_type != schema["first_record"]:
        errors.append(
            f"{path}: first record must be {schema['first_record']!r}, "
            f"got {first_type!r}"
        )
    if "span" not in seen_types:
        errors.append(f"{path}: no span records (empty telemetry?)")
    return errors


def check_trace_chrome(path: Path, payload: dict) -> list[str]:
    """Validate a Chrome trace-event export against the committed schema."""
    schema = _load_schema("trace_chrome.schema.json")
    errors = _check_fields(payload, schema["top"], str(path))
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return errors
    if not events:
        errors.append(f"{path}: traceEvents is empty")
    allowed = set(schema["phases"])
    need_dur = set(schema["duration_phases"])
    for i, event in enumerate(events):
        where = f"{path}: traceEvents[{i}]"
        if not isinstance(event, dict):
            errors.append(f"{where}: not an object")
            continue
        errors.extend(_check_fields(event, schema["event"], where))
        ph = event.get("ph")
        if ph is not None and ph not in allowed:
            errors.append(f"{where}: phase {ph!r} not in {sorted(allowed)}")
        if ph in need_dur and "dur" not in event:
            errors.append(f"{where}: phase {ph!r} requires 'dur'")
    other = payload.get("otherData", {})
    if isinstance(other, dict) and other.get("format") not in (None, schema["format"]):
        errors.append(
            f"{path}: otherData.format {other.get('format')!r} != {schema['format']!r}"
        )
    return errors


_PARALLEL_TOP_KEYS = {
    "bench": str,
    "timestamp": str,
    "python": str,
    "host_cpus": int,
    "rounds": int,
    "workers": int,
    "quick": bool,
    "sweep": dict,
    "campaign": dict,
}
_PARALLEL_CELL_KEYS = {
    "network": str,
    "scenario": str,
    "solved": bool,
    "cost_lower_bound": (int, float),
    "actions_in_plan": int,
    "total_actions": int,
    "rg_nodes": int,
    "plan": list,
}


def check_bench_parallel(path: Path, data: dict) -> list[str]:
    """Validate a parallel-warmstart benchmark file (BENCH_pr5)."""
    errors: list[str] = []
    for key, typ in _PARALLEL_TOP_KEYS.items():
        if key not in data:
            errors.append(f"{path}: missing top-level key {key!r}")
        elif not isinstance(data[key], typ):
            errors.append(f"{path}: {key!r} should be {typ}")
    sweep = data.get("sweep", {})
    for mode in ("serial_cold", "serial_warm", "parallel_warm"):
        entry = sweep.get(mode)
        if not isinstance(entry, dict):
            errors.append(f"{path}: sweep.{mode} missing or not an object")
            continue
        if not isinstance(entry.get("rounds_s"), list) or not entry["rounds_s"]:
            errors.append(f"{path}: sweep.{mode}.rounds_s must be a non-empty list")
        if not isinstance(entry.get("best_s"), (int, float)):
            errors.append(f"{path}: sweep.{mode}.best_s must be a number")
        elif isinstance(entry.get("rounds_s"), list) and entry["rounds_s"]:
            if abs(entry["best_s"] - min(entry["rounds_s"])) > 1e-3:
                errors.append(
                    f"{path}: sweep.{mode}.best_s inconsistent with rounds_s"
                )
    for key in ("speedup_parallel_warm", "speedup_serial_warm"):
        if not isinstance(sweep.get(key), (int, float)):
            errors.append(f"{path}: sweep.{key} must be a number")
    cells = sweep.get("cells")
    if not isinstance(cells, list) or not cells:
        errors.append(f"{path}: sweep.cells must be a non-empty list")
    else:
        for i, cell in enumerate(cells):
            for key, typ in _PARALLEL_CELL_KEYS.items():
                if key not in cell:
                    errors.append(f"{path}: sweep.cells[{i}] missing {key!r}")
                elif not isinstance(cell[key], typ) or (
                    typ is int and isinstance(cell[key], bool)
                ):
                    errors.append(f"{path}: sweep.cells[{i}].{key} should be {typ}")
    campaign = data.get("campaign", {})
    cache = campaign.get("cache")
    if not isinstance(cache, dict):
        errors.append(f"{path}: campaign.cache missing or not an object")
    else:
        for key in ("hits", "misses", "hit_rate"):
            if not isinstance(cache.get(key), (int, float)):
                errors.append(f"{path}: campaign.cache.{key} must be a number")
        if isinstance(cache.get("hits"), int) and cache["hits"] <= 0:
            errors.append(
                f"{path}: campaign.cache.hits must be > 0 "
                "(the repair loop must hit the warm-start cache)"
            )
    return errors


_STATIC_PRUNE_TOP_KEYS = {
    "bench": str,
    "timestamp": str,
    "python": str,
    "quick": bool,
    "mode": str,
    "table2": list,
    "fig10_symmetric_routes": list,
    "headline": dict,
}
_STATIC_PRUNE_CELL_KEYS = {
    "cost": (int, float),
    "total_actions": int,
    "dead_actions": int,
    "rg_nodes_off": int,
    "rg_nodes_on": int,
    "rg_expanded_off": int,
    "rg_expanded_on": int,
    "sym_pruned": int,
    "nodes_reduction_pct": (int, float),
    "expansions_reduction_pct": (int, float),
    "analysis_ms": (int, float),
}


def check_bench_static_prune(path: Path, data: dict) -> list[str]:
    """Validate a static-pruning benchmark file (BENCH_pr6)."""
    errors: list[str] = []
    for key, typ in _STATIC_PRUNE_TOP_KEYS.items():
        if key not in data:
            errors.append(f"{path}: missing top-level key {key!r}")
        elif not isinstance(data[key], typ):
            errors.append(f"{path}: {key!r} should be {typ}")
    for section in ("table2", "fig10_symmetric_routes"):
        cells = data.get(section)
        if not isinstance(cells, list) or not cells:
            errors.append(f"{path}: {section} must be a non-empty list")
            continue
        for i, cell in enumerate(cells):
            where = f"{path}: {section}[{i}]"
            if not isinstance(cell, dict):
                errors.append(f"{where}: not an object")
                continue
            for key in ("case", "status", "identical_cost", "solved"):
                if key not in cell:
                    errors.append(f"{where} missing {key!r}")
            if cell.get("identical_cost") is not True:
                errors.append(
                    f"{where}: identical_cost must be true — static pruning "
                    "may never change the plan cost"
                )
            if not cell.get("solved"):
                continue  # infeasible cells carry no planner-work columns
            for key, typ in _STATIC_PRUNE_CELL_KEYS.items():
                if key not in cell:
                    errors.append(f"{where} missing {key!r}")
                elif not isinstance(cell[key], typ) or (
                    typ is int and isinstance(cell[key], bool)
                ):
                    errors.append(f"{where}.{key} should be {typ}")
            if errors:
                continue
            expect = (
                100.0
                * (cell["rg_expanded_off"] - cell["rg_expanded_on"])
                / max(cell["rg_expanded_off"], 1)
            )
            if abs(expect - cell["expansions_reduction_pct"]) > 0.05:
                errors.append(
                    f"{where}: expansions_reduction_pct "
                    f"{cell['expansions_reduction_pct']} inconsistent with "
                    f"counts ({expect:.2f})"
                )
    headline = data.get("headline")
    if isinstance(headline, dict):
        for key in ("case", "rg_expanded_off", "rg_expanded_on",
                    "expansions_reduction_pct", "sym_pruned"):
            if key not in headline:
                errors.append(f"{path}: headline missing {key!r}")
        reduction = headline.get("expansions_reduction_pct")
        if isinstance(reduction, (int, float)) and reduction <= 0:
            errors.append(
                f"{path}: headline.expansions_reduction_pct must be > 0 "
                "(the symmetric-route cells must show a real saving)"
            )
    return errors


_CONTROLLER_TOP_KEYS = {
    "bench": str,
    "timestamp": str,
    "python": str,
    "host_cpus": int,
    "fleet": int,
    "events": int,
    "seed": int,
    "rounds": int,
    "modes": dict,
    "speedup_ttr": (int, float),
    "speedup_ttr_vs_cache": (int, float),
    "equivalent": bool,
}
_CONTROLLER_MODE_KEYS = {
    "ttr_ms_mean_rounds": list,
    "ttr_ms_mean_best": (int, float),
    "ttr_ms_max_best": (int, float),
    "repairs": int,
    "outages": int,
    "availability": (int, float),
    "delta_hits": int,
    "delta_full": int,
}


def check_bench_controller(path: Path, data: dict) -> list[str]:
    """Validate a controller-delta TTR benchmark file (BENCH_pr7)."""
    errors: list[str] = []
    for key, typ in _CONTROLLER_TOP_KEYS.items():
        if key not in data:
            errors.append(f"{path}: missing top-level key {key!r}")
        elif not isinstance(data[key], typ) or (
            typ is int and isinstance(data[key], bool)
        ):
            errors.append(f"{path}: {key!r} should be {typ}")
    modes = data.get("modes", {})
    for mode in ("full_recompile", "warm_cache", "delta"):
        entry = modes.get(mode)
        if not isinstance(entry, dict):
            errors.append(f"{path}: modes.{mode} missing or not an object")
            continue
        for key, typ in _CONTROLLER_MODE_KEYS.items():
            if key not in entry:
                errors.append(f"{path}: modes.{mode} missing {key!r}")
            elif not isinstance(entry[key], typ) or (
                typ is int and isinstance(entry[key], bool)
            ):
                errors.append(f"{path}: modes.{mode}.{key} should be {typ}")
        rounds_ms = entry.get("ttr_ms_mean_rounds")
        best = entry.get("ttr_ms_mean_best")
        if isinstance(rounds_ms, list) and rounds_ms and isinstance(best, (int, float)):
            if abs(best - min(rounds_ms)) > 1e-3:
                errors.append(
                    f"{path}: modes.{mode}.ttr_ms_mean_best inconsistent "
                    "with ttr_ms_mean_rounds"
                )
    if data.get("equivalent") is not True:
        errors.append(
            f"{path}: equivalent must be true — delta replanning may "
            "never change a repair outcome or cost"
        )
    delta = modes.get("delta", {})
    full = modes.get("full_recompile", {})
    if isinstance(delta.get("delta_hits"), int) and delta["delta_hits"] <= 0:
        errors.append(
            f"{path}: modes.delta.delta_hits must be > 0 "
            "(the delta path must serve some repairs warm)"
        )
    for key in ("repairs", "outages", "availability"):
        if key in delta and key in full and delta[key] != full[key]:
            errors.append(
                f"{path}: modes.delta.{key} != modes.full_recompile.{key} "
                "(outcomes must not depend on the compile path)"
            )
    return errors


_SUPERVISION_TOP_KEYS = {
    "bench": str,
    "timestamp": str,
    "python": str,
    "host_cpus": int,
    "workers": int,
    "runs": int,
    "events": int,
    "rounds": int,
    "modes": dict,
    "recovery_s": (int, float),
    "equivalent": bool,
}


def check_bench_supervision(path: Path, data: dict) -> list[str]:
    """Validate a supervision recovery benchmark file (BENCH_pr9).

    Files from before the raw worker pool was removed also carry a
    ``pool`` mode and ``overhead_pct``; extra keys are allowed.
    """
    errors: list[str] = []
    for key, typ in _SUPERVISION_TOP_KEYS.items():
        if key not in data:
            errors.append(f"{path}: missing top-level key {key!r}")
        elif not isinstance(data[key], typ) or (
            typ is int and isinstance(data[key], bool)
        ):
            errors.append(f"{path}: {key!r} should be {typ}")
    modes = data.get("modes", {})
    for mode in ("serial", "supervised", "supervised_kill"):
        entry = modes.get(mode)
        if not isinstance(entry, dict):
            errors.append(f"{path}: modes.{mode} missing or not an object")
            continue
        rounds_s = entry.get("rounds_s")
        best = entry.get("best_s")
        if not isinstance(rounds_s, list) or not rounds_s:
            errors.append(f"{path}: modes.{mode}.rounds_s must be a non-empty list")
        if not isinstance(best, (int, float)):
            errors.append(f"{path}: modes.{mode}.best_s must be a number")
        elif isinstance(rounds_s, list) and rounds_s:
            if abs(best - min(rounds_s)) > 1e-3:
                errors.append(
                    f"{path}: modes.{mode}.best_s inconsistent with rounds_s"
                )
    killed = modes.get("supervised_kill", {})
    for key in ("respawns", "retries"):
        value = killed.get(key)
        if not isinstance(value, int) or isinstance(value, bool) or value < 1:
            errors.append(
                f"{path}: modes.supervised_kill.{key} must be an int >= 1 "
                "(the injected kill must actually exercise recovery)"
            )
    if data.get("equivalent") is not True:
        errors.append(
            f"{path}: equivalent must be true — supervised recovery may "
            "never change a campaign record"
        )
    return errors


_HIERARCHY_TOP_KEYS = {
    "bench": str,
    "timestamp": str,
    "python": str,
    "host_cpus": int,
    "quick": bool,
    "flat_time_limit_s": (int, float),
    "points": list,
    "determinism": dict,
    "headline": dict,
}
_HIERARCHY_SIDE_KEYS = {  # per-point "flat" / "hierarchical" sub-objects
    "solved": bool,
    "wall_ms": (int, float),
    "cost_lb": (int, float),
}


def check_bench_hierarchy(path: Path, data: dict) -> list[str]:
    """Validate a hierarchical-scaling benchmark file (BENCH_pr10)."""
    errors: list[str] = []
    for key, typ in _HIERARCHY_TOP_KEYS.items():
        if key not in data:
            errors.append(f"{path}: missing top-level key {key!r}")
        elif not isinstance(data[key], typ) or (
            typ is int and isinstance(data[key], bool)
        ):
            errors.append(f"{path}: {key!r} should be {typ}")
    points = data.get("points")
    if not isinstance(points, list) or not points:
        return errors + [f"{path}: points must be a non-empty list"]
    for i, point in enumerate(points):
        where = f"{path}: points[{i}]"
        if not isinstance(point, dict):
            errors.append(f"{where}: not an object")
            continue
        for key in ("stub_domains", "nodes", "links"):
            if not isinstance(point.get(key), int):
                errors.append(f"{where}.{key} must be an int")
        for side in ("flat", "hierarchical"):
            entry = point.get(side)
            if not isinstance(entry, dict):
                errors.append(f"{where}.{side} missing or not an object")
                continue
            for key, typ in _HIERARCHY_SIDE_KEYS.items():
                if not isinstance(entry.get(key), typ):
                    errors.append(f"{where}.{side}.{key} should be {typ}")
        flat, hier = point.get("flat", {}), point.get("hierarchical", {})
        if hier.get("solved") and hier.get("mode") != "hierarchical":
            errors.append(
                f"{where}: hierarchical.mode is {hier.get('mode')!r} — the "
                "sweep silently fell back instead of planning hierarchically"
            )
        if flat.get("solved") and hier.get("solved"):
            delta = point.get("cost_delta")
            if not isinstance(delta, (int, float)) or abs(delta) > 1e-6:
                errors.append(
                    f"{where}: cost_delta {delta!r} — the decomposition must "
                    "preserve the flat plan's cost where flat completes"
                )

    # The sub-linear headline, recomputed from the raw points rather than
    # trusted from the headline block.
    hier_solved = [
        p for p in points
        if isinstance(p, dict) and p.get("hierarchical", {}).get("solved")
    ]
    if len(hier_solved) >= 2:
        first, last = hier_solved[0], max(hier_solved, key=lambda p: p["nodes"])
        node_growth = last["nodes"] / first["nodes"]
        time_growth = last["hierarchical"]["wall_ms"] / max(
            first["hierarchical"]["wall_ms"], 1e-9
        )
        if time_growth >= node_growth:
            errors.append(
                f"{path}: hierarchical wall time grew {time_growth:.1f}x over "
                f"{node_growth:.1f}x nodes — the sub-linear headline fails"
            )
    elif not data.get("quick"):
        errors.append(f"{path}: fewer than two solved hierarchical points")
    if not data.get("quick"):
        if not any(p.get("nodes", 0) >= 1000 for p in hier_solved):
            errors.append(
                f"{path}: a full (non-quick) sweep must solve a >=1000-node "
                "network hierarchically"
            )
    det = data.get("determinism")
    if isinstance(det, dict):
        if det.get("identical") is not True:
            errors.append(
                f"{path}: determinism.identical must be true — plans must be "
                "byte-identical across worker counts"
            )
        workers = det.get("workers_checked")
        if not isinstance(workers, list) or len(set(map(str, workers or []))) < 2:
            errors.append(
                f"{path}: determinism.workers_checked must list >=2 distinct "
                "worker counts"
            )
    return errors


def check_bench(path: Path, data: dict) -> list[str]:
    """Validate a BENCH_*.json benchmark result file."""
    if data.get("bench") == "hierarchy":
        return check_bench_hierarchy(path, data)
    if data.get("bench") == "parallel-warmstart":
        return check_bench_parallel(path, data)
    if data.get("bench") == "static-prune":
        return check_bench_static_prune(path, data)
    if data.get("bench") == "controller-delta":
        return check_bench_controller(path, data)
    if data.get("bench") == "supervision":
        return check_bench_supervision(path, data)
    errors: list[str] = []
    for key, typ in _TOP_KEYS.items():
        if key not in data:
            errors.append(f"{path}: missing top-level key {key!r}")
        elif not isinstance(data[key], typ):
            errors.append(f"{path}: {key!r} should be {typ}")
    for i, cell in enumerate(data.get("cells", [])):
        for key, typ in _CELL_KEYS.items():
            if key not in cell:
                errors.append(f"{path}: cells[{i}] missing {key!r}")
            elif not isinstance(cell[key], typ):
                errors.append(f"{path}: cells[{i}].{key} should be {typ}")
        if not errors and cell["compiled_rg_ms"] > 0:
            ratio = cell["interpreted_rg_ms"] / cell["compiled_rg_ms"]
            if abs(ratio - cell["speedup"]) > 0.05 * max(1.0, ratio):
                errors.append(
                    f"{path}: cells[{i}] speedup {cell['speedup']} inconsistent "
                    f"with timings ({ratio:.2f})"
                )
    if not data.get("cells"):
        errors.append(f"{path}: no cells recorded")
    return errors


def check(path: Path) -> list[str]:
    try:
        text = path.read_text()
    except OSError as exc:
        return [f"{path}: unreadable ({exc})"]

    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            payload = json.loads(text)
        except json.JSONDecodeError:
            payload = None
        if isinstance(payload, dict):
            if "traceEvents" in payload:
                return check_trace_chrome(path, payload)
            if "cells" in payload or "bench" in payload:
                return check_bench(path, payload)
    # Line-delimited records (or a malformed single object: the JSONL
    # checker produces a precise per-line diagnosis either way).
    return check_trace_jsonl(path, text)


def main(argv: list[str]) -> int:
    root = Path(__file__).resolve().parent.parent
    paths = [Path(a) for a in argv] or sorted(root.glob("BENCH_*.json"))
    if not paths:
        print("no BENCH_*.json files found", file=sys.stderr)
        return 1
    failures: list[str] = []
    for path in paths:
        errs = check(path)
        failures.extend(errs)
        print(f"{path}: {'OK' if not errs else 'FAIL'}")
    for err in failures:
        print(f"  {err}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
