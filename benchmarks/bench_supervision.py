"""Supervision recovery-cost benchmark.

Runs the same seeded fault-campaign workload three ways and reports what
recovering from a worker death costs (docs/ROBUSTNESS.md, "Supervised
execution"):

* ``serial`` — the reference: every campaign run in-process, no workers.
* ``supervised`` — :class:`~repro.parallel.Supervisor` workers, nothing
  failing: the steady-state fan-out.
* ``supervised_kill`` — one worker SIGKILLed mid-run via the
  supervisor's fault-injection hook: the wall-clock cost of detecting a
  death, respawning the worker, and retrying its in-flight task.

Equivalence is asserted, not assumed: all three modes must produce
byte-identical campaign records (the supervision determinism contract —
worker deaths change wall clock and nothing else).  The headline number
is ``recovery_s`` (extra wall clock paid for one kill+respawn+retry,
best round each).

Not collected by pytest (no ``test_`` prefix); run directly:

    PYTHONPATH=src python benchmarks/bench_supervision.py [--rounds N] \
        [--workers W] [--runs R] [--events E] [--out FILE]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.domains import media  # noqa: E402
from repro.network import chain_network  # noqa: E402
from repro.parallel import (  # noqa: E402
    CampaignTask,
    Supervisor,
    run_campaign_task,
)

CAMPAIGN_SPEC_FAULTS = {
    "p_link_fail": 0.25,
    "p_link_jitter": 0.5,
    "p_node_jitter": 0.25,
    "p_transient": 0.7,
}


def build_tasks(runs: int, events: int) -> list[CampaignTask]:
    app = media.build_app("n0", "n2")
    network = chain_network([(150, "LAN"), (150, "LAN")], cpu=30.0)
    leveling = media.proportional_leveling((90, 100))
    spec = {
        "faults": dict(CAMPAIGN_SPEC_FAULTS, events=events),
        "rg_node_budget": 20_000,
    }
    return [
        CampaignTask(app=app, network=network, leveling=leveling, spec=spec,
                     seed=11 + 6 * i)
        for i in range(runs)
    ]


def records_of(results) -> list[dict]:
    return [r.record for r in results]


def bench_rounds(rounds: int, run_once) -> tuple[list[dict], dict]:
    """Min-of-N rounds of one mode; returns (records, timings)."""
    records, times = None, []
    for _ in range(rounds):
        t0 = time.perf_counter()
        out = run_once()
        times.append(time.perf_counter() - t0)
        records = out
        print(f"  round: {times[-1]:.3f}s", flush=True)
    return records, {
        "rounds_s": [round(t, 3) for t in times],
        "best_s": round(min(times), 3),
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rounds", type=int, default=3,
                    help="repetitions per mode; best round is reported")
    ap.add_argument("--workers", type=int, default=4, help="worker processes")
    ap.add_argument("--runs", type=int, default=8,
                    help="campaign runs (tasks) per round")
    ap.add_argument("--events", type=int, default=6,
                    help="fault-timeline length per run")
    ap.add_argument("--out", default="BENCH_pr9.json", help="output JSON path")
    args = ap.parse_args(argv)

    tasks = build_tasks(args.runs, args.events)
    kill_index = min(1, len(tasks) - 1)
    modes: dict[str, dict] = {}
    records: dict[str, list[dict]] = {}

    print("serial:", flush=True)
    records["serial"], modes["serial"] = bench_rounds(
        args.rounds, lambda: records_of(run_campaign_task(t) for t in tasks)
    )

    print("supervised:", flush=True)
    with Supervisor(args.workers) as sup:
        records["supervised"], modes["supervised"] = bench_rounds(
            args.rounds, lambda: records_of(sup.map(run_campaign_task, tasks))
        )

    print("supervised_kill:", flush=True)
    respawns, retries = [], []

    def killed_round():
        # A fresh supervisor per round: each round pays the same one
        # kill + respawn + retry (the respawn budget never carries over).
        with Supervisor(args.workers) as sup:
            report = sup.run(run_campaign_task, tasks, inject_kill={kill_index})
            report.raise_on_failure()
            respawns.append(report.stats.respawns)
            retries.append(report.stats.retries)
            return records_of(report.values)

    records["supervised_kill"], modes["supervised_kill"] = bench_rounds(
        args.rounds, killed_round
    )
    modes["supervised_kill"]["respawns"] = respawns[-1]
    modes["supervised_kill"]["retries"] = retries[-1]
    if min(respawns) < 1 or min(retries) < 1:
        raise SystemExit("supervised_kill: the injected kill never fired")

    reference = records["serial"]
    for name, recs in records.items():
        if recs != reference:
            raise SystemExit(f"campaign records diverged in mode {name!r}")

    sup_best = modes["supervised"]["best_s"]
    kill_best = modes["supervised_kill"]["best_s"]
    result = {
        "bench": "supervision",
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "python": platform.python_version(),
        "host_cpus": os.cpu_count() or 1,
        "workers": args.workers,
        "runs": args.runs,
        "events": args.events,
        "rounds": args.rounds,
        "modes": modes,
        "recovery_s": round(kill_best - sup_best, 3),
        "equivalent": True,
    }
    Path(args.out).write_text(json.dumps(result, indent=2) + "\n")
    print(
        f"\none kill costs {result['recovery_s']:.3f}s "
        f"(supervised {sup_best:.3f}s, killed {kill_best:.3f}s); wrote {args.out}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
