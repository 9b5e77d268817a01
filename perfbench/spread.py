"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/spread.py --seeds 1-10 [--workload NAME ...] [--out FILE]

Runs ``run.py --trace 0`` once per seed and workload, one run at a time,
appends each run's result and provenance to ``--out`` as a JSON line, and
prints, per workload and end-to-end metric, the median of the runs and
the distance between their first and third quartiles as a share of the
median (``statistics.quantiles(values, n=4)``).  ``--summarise FILE``
prints the same table from lines recorded before, without running.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values: list[float]) -> float:
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def summarise(rows: list[dict]) -> None:
    by_workload: dict[str, dict[str, list[float]]] = {}
    for row in rows:
        metrics = by_workload.setdefault(row["workload"], {})
        for name, metric in row["result"]["metrics"].items():
            metrics.setdefault(name, []).append(metric["value"])
    for workload, metrics in by_workload.items():
        for name, values in metrics.items():
            print(
                f"{workload:13} {name:16} runs {len(values):2}  median {statistics.median(values):10.4g}"
                f"  spread {spread(values):.3f}  min {min(values):.4g}  max {max(values):.4g}"
            )


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--workload", action="append", choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--out", type=Path)
    ap.add_argument("--summarise", type=Path, help="summarise recorded lines instead of running")
    args = ap.parse_args(argv)

    if args.summarise:
        summarise([json.loads(line) for line in args.summarise.read_text().splitlines()])
        return 0
    rows = []
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        for seed in args.seeds:
            cmd = [
                sys.executable, str(HERE / "run.py"), "--workload", workload,
                "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0",
            ]
            lines = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout.splitlines()
            row = {
                "workload": workload,
                "seed": seed,
                "provenance": json.loads(lines[-2])["provenance"],
                "result": json.loads(lines[-1]),
            }
            rows.append(row)
            if args.out:
                with args.out.open("a") as f:
                    f.write(json.dumps(row, sort_keys=True) + "\n")
            values = {k: round(v["value"], 4) for k, v in row["result"]["metrics"].items()}
            print(workload, seed, row["result"]["correct"], values, file=sys.stderr, flush=True)
    summarise(rows)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
