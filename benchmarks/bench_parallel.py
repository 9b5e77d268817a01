"""Parallel-execution benchmark: warm-start cache + process fan-out.

Times the full fig-10 sweep (every Table 2 cell) three ways:

* ``serial_cold`` — the pre-PR baseline: one process, no cache, every
  round pays full compilation.  Min-of-N rounds.
* ``serial_warm`` — one process with the warm-start compile cache kept
  across rounds: round 0 compiles, later rounds fork cached problems.
  Min over the *warm* rounds.
* ``parallel_warm`` — N worker processes under one persistent
  :class:`~repro.parallel.Supervisor`: deterministic sharding pins each
  cell to one worker, so per-worker caches are warm from round 1 on.
  Min over the warm rounds.

The headline number is ``serial_cold / parallel_warm`` — the steady-state
speedup a repeated sweep (a watch loop, a tuning sweep, a CI matrix)
actually observes.  On a multi-core host both effects compound (cache
removes compile time, cores overlap the solves); on a single-core host
the cache does all the work — ``host_cpus`` is recorded so the committed
number can be read honestly.  Plan parity across all three modes is
asserted cell-by-cell.

A second section replays a multi-step fault campaign through the cache
and reports its hit rate (repair compiles the same key twice per step,
and transient faults recover to previously-seen network states).

Not collected by pytest (no ``test_`` prefix); run directly:

    PYTHONPATH=src python benchmarks/bench_parallel.py [--quick] [--rounds N] \
        [--workers W] [--out FILE]

``--quick`` restricts the grid to Tiny and Small (the CI smoke
configuration).  See ``docs/PERFORMANCE.md`` for the schema and the
committed numbers.
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
from repro.experiments.harness import (  # noqa: E402
    _run_table2_parallel,
    run_table2,
)
from repro.network import chain_network  # noqa: E402
from repro.obs import Telemetry  # noqa: E402
from repro.parallel import CompileCache, Supervisor  # noqa: E402
from repro.simulate import LinkChange  # noqa: E402
from repro.simulate.runner import Simulation  # noqa: E402

FULL_GRID = (("Tiny", "Small", "Large"), ("B", "C", "D", "E"))
QUICK_GRID = (("Tiny", "Small"), ("B", "C", "D", "E"))


def _records(rows) -> list[dict]:
    records = {(r.network, r.scenario): r.to_record() for r in rows}
    return [records[k] for k in sorted(records)]


def bench_sweep(networks, scenarios, rounds: int, workers: int) -> dict:
    """Time the sweep in all three modes; assert plan parity throughout."""
    reference: list[dict] | None = None

    def note(rows):
        nonlocal reference
        recs = _records(rows)
        if reference is None:
            reference = recs
        elif recs != reference:
            raise SystemExit("plan parity violated across benchmark modes")

    serial_cold: list[float] = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        rows = run_table2(networks, scenarios)
        serial_cold.append(time.perf_counter() - t0)
        note(rows)
    print(f"serial_cold   rounds: {[f'{s:.3f}' for s in serial_cold]}", flush=True)

    serial_warm: list[float] = []
    cache = CompileCache()
    for _ in range(rounds + 1):  # +1: round 0 fills the cache
        t0 = time.perf_counter()
        rows = run_table2(networks, scenarios, compile_cache=cache)
        serial_warm.append(time.perf_counter() - t0)
        note(rows)
    print(f"serial_warm   rounds: {[f'{s:.3f}' for s in serial_warm]}", flush=True)
    serial_cache_stats = cache.stats()

    # Timed rounds run uninstrumented, like the serial modes above; cache
    # counters come from two *untimed* instrumented rounds (the cold fill
    # and one steady-state round), so instrumentation overhead never
    # leaks into the timings it is meant to explain.
    parallel_warm: list[float] = []
    telemetry = Telemetry()
    with Supervisor(workers) as sup:
        note(
            _run_table2_parallel(  # cold: fills the per-worker caches
                networks, scenarios, workers, telemetry=telemetry,
                compile_cache=cache, pool=sup,
            )
        )
        for _ in range(rounds):
            t0 = time.perf_counter()
            rows = _run_table2_parallel(
                networks,
                scenarios,
                workers,
                compile_cache=cache,  # flag only: workers use their own
                pool=sup,
            )
            parallel_warm.append(time.perf_counter() - t0)
            note(rows)
        note(
            _run_table2_parallel(  # steady state: every compile is a hit
                networks, scenarios, workers, telemetry=telemetry,
                compile_cache=cache, pool=sup,
            )
        )
    print(f"parallel_warm rounds: {[f'{s:.3f}' for s in parallel_warm]}", flush=True)
    worker_hits = telemetry.metrics.counter("cache.hit").value
    worker_misses = telemetry.metrics.counter("cache.miss").value

    cold_best = min(serial_cold)
    warm_best = min(serial_warm[1:])
    par_best = min(parallel_warm)  # cold fill round is not timed
    return {
        "serial_cold": {
            "rounds_s": [round(s, 4) for s in serial_cold],
            "best_s": round(cold_best, 4),
        },
        "serial_warm": {
            "rounds_s": [round(s, 4) for s in serial_warm],
            "best_s": round(warm_best, 4),
            "cache": serial_cache_stats,
        },
        "parallel_warm": {
            "rounds_s": [round(s, 4) for s in parallel_warm],
            "best_s": round(par_best, 4),
            "workers": workers,
            "cache_hits": worker_hits,
            "cache_misses": worker_misses,
            "cache_hit_rate": round(
                worker_hits / max(worker_hits + worker_misses, 1), 4
            ),
        },
        "speedup_parallel_warm": round(cold_best / max(par_best, 1e-9), 2),
        "speedup_serial_warm": round(cold_best / max(warm_best, 1e-9), 2),
        "cells": reference,
    }


def bench_campaign() -> dict:
    """Cache hit rate of a multi-step fault campaign (repair loop)."""
    net = chain_network([(150, "LAN"), (150, "LAN")], cpu=30.0)
    app = media.build_app("n0", "n2")
    lev = media.proportional_leveling((90, 100))
    events = [
        LinkChange("n0", "n1", "lbw", 100.0),
        LinkChange("n0", "n1", "lbw", 150.0),
        LinkChange("n0", "n1", "lbw", 100.0),
        LinkChange("n1", "n2", "lbw", 120.0),
        LinkChange("n1", "n2", "lbw", 150.0),
        LinkChange("n0", "n1", "lbw", 150.0),
    ]

    t0 = time.perf_counter()
    Simulation(app, net, lev, compile_cache=None).run(events)
    uncached_s = time.perf_counter() - t0

    cache = CompileCache()
    t0 = time.perf_counter()
    Simulation(app, net, lev, compile_cache=cache).run(events)
    cached_s = time.perf_counter() - t0
    stats = cache.stats()
    return {
        "steps": len(events),
        "uncached_s": round(uncached_s, 4),
        "cached_s": round(cached_s, 4),
        "speedup": round(uncached_s / max(cached_s, 1e-9), 2),
        "cache": stats,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="Tiny and Small networks only (CI smoke)")
    ap.add_argument("--rounds", type=int, default=3,
                    help="timing rounds per mode; the minimum is reported")
    ap.add_argument("--workers", type=int, default=4,
                    help="worker processes for the parallel mode")
    ap.add_argument("--out", default="BENCH_pr5.json", help="output JSON path")
    args = ap.parse_args(argv)

    networks, scenarios = QUICK_GRID if args.quick else FULL_GRID
    sweep = bench_sweep(networks, scenarios, args.rounds, args.workers)
    campaign = bench_campaign()

    result = {
        "bench": "parallel-warmstart",
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "python": platform.python_version(),
        "host_cpus": os.cpu_count() or 1,
        "rounds": args.rounds,
        "workers": args.workers,
        "quick": args.quick,
        "sweep": sweep,
        "campaign": campaign,
    }
    Path(args.out).write_text(json.dumps(result, indent=2) + "\n")
    print(f"\nwrote {args.out}")
    print(
        f"full sweep: serial cold {sweep['serial_cold']['best_s']:.3f}s -> "
        f"{args.workers}-worker warm {sweep['parallel_warm']['best_s']:.3f}s "
        f"({sweep['speedup_parallel_warm']:.2f}x, "
        f"worker cache hit rate {sweep['parallel_warm']['cache_hit_rate']:.0%})"
    )
    print(
        f"campaign: {campaign['cache']['hits']} cache hits / "
        f"{campaign['cache']['hits'] + campaign['cache']['misses']} compiles "
        f"({campaign['cache']['hit_rate']:.0%}), "
        f"{campaign['speedup']:.2f}x wall clock"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
