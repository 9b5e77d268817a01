"""Run one benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its
``src/``.  One client, single-threaded, in a closed loop: each op starts
when the previous one has returned.  The run solves a fixed list of
about ``S`` seconds of ops drawn from the seed (never a time box, so two
runs with one seed do the same work), checks every op's output against
``expected.json``, and prints a provenance line and then, as its last
line, ``{"correct", "attempted", "failed", "metrics"}``.  Times are
reported at a reference host speed (``calibrate.py``).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the
op list four times: a warm-up, untraced, traced (per-layer wrappers
installed, ``spans.py``), and untraced again.  It reports the per-layer
metrics of the traced pass, and the tracing overhead: the median over
ops of the traced latency minus the mean of the two untraced latencies
of the same op.  A process's first pass over the list runs slower
(hier-10k by about a third) and later passes drift slower, so the
warm-up is left out and the untraced passes bracket the traced one.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

import calibrate  # noqa: E402
import gate  # noqa: E402
import quantiles  # noqa: E402
import spans  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

TAIL = 75
"""The tail percentile reported.  Every workload runs at least the
``quantiles.min_samples(TAIL)`` ops that leave ten samples beyond it;
p90 would need 100 ops, 60 s a run on flat-ground."""

SETUP_SAMPLES = 3
"""Set-ups timed per run, each in a fresh interpreter; the median is reported."""

END_TO_END = {
    "latency_p50_ms": "ms",
    f"latency_p{TAIL}_ms": "ms",
    "throughput_rps": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--setup-only", action="store_true",
        help="set up, print the set-up time, and exit; a --trace 0 run "
        f"starts itself this way {SETUP_SAMPLES} times to time setup_s",
    )
    return ap.parse_args(argv)


def import_program() -> None:
    """Put the checkout's ``src/`` first on the path and import it from there."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program at {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not from {SRC}")


def op_count(workload, seconds: float) -> int:
    return max(quantiles.min_samples(TAIL), math.ceil(seconds / workload.nominal_op_s))


def steal_ticks() -> int:
    """CPU time the hypervisor gave to other guests, in clock ticks since boot."""
    try:
        with open("/proc/stat") as f:
            return int(f.readline().split()[8])
    except (OSError, IndexError, ValueError):
        return -1


class Runner:
    """Runs ops one after another, timing each and gating its output.

    Before each op, and once after the last, it times the calibration
    kernel; each op's time is reported at the reference host speed, by
    the mean of the kernel times around it.
    """

    def __init__(self, tracer: spans.Tracer | None = None):
        self.tracer = tracer
        self.patches = spans.layer_patches(tracer) if tracer else None
        self.labels: list[str] = []
        self.raw_ms: list[float | None] = []  # None where the op failed
        self.busy_s: list[float] = []  # from an op's start to the next kernel
        self.kernel_ms: list[float] = []
        self.failures: list[str] = []
        self.first_start: float | None = None
        self.ended_early: str | None = None
        self._op_start: float | None = None

    def run(self, workload, seed: int, n: int) -> None:
        """Run ``workload``'s op list through :meth:`measure`."""
        try:
            workload.run(seed, n, gate.load_expected()[workload.name], self.measure)
        except gate.InputDrift as exc:
            raise SystemExit(f"perfbench: refusing to run: {exc}") from None
        except Exception as exc:
            if not self.failures:
                raise  # not the consequence of a failed op
            # A failed op the workload cannot go on from (a controller
            # needs every repair's outcome): it is counted already.
            self.ended_early = f"{type(exc).__name__}: {exc}"
        self.finish()

    def _end_op(self) -> None:
        self.busy_s.append(time.perf_counter() - self._op_start)
        self.kernel_ms.append(calibrate.kernel_ms())

    def finish(self) -> None:
        """Close the last op with the kernel run that follows it."""
        if self._op_start is not None and len(self.busy_s) < len(self.labels):
            self._end_op()

    def measure(self, op):
        if self._op_start is None:
            self.first_start = time.perf_counter()
            self.kernel_ms.append(calibrate.kernel_ms())
        else:
            self._end_op()
        self._op_start = time.perf_counter()
        self.labels.append(op.label)
        self.raw_ms.append(None)
        try:
            with spans.tracing(self.tracer, self.patches) if self.tracer else nullcontext():
                start = time.perf_counter()
                result = op.call()
                elapsed = time.perf_counter() - start
            problems = gate.mismatches(op.expected, op.observe(result))
        except Exception as exc:  # a failing op is counted, and the run goes on
            self.failures.append(f"{op.label}: {type(exc).__name__}: {exc}")
            return None
        self.raw_ms[-1] = elapsed * 1e3
        if problems:
            self.failures.append(f"{op.label}: {'; '.join(problems)}")
        return result

    def factors(self) -> list[float]:
        """Per op, how much slower than the reference the host ran."""
        return [calibrate.factor(a, b) for a, b in zip(self.kernel_ms, self.kernel_ms[1:])]

    def latencies_ms(self) -> list[float | None]:
        """Per op, its time at the reference host speed; None where it failed."""
        return [None if ms is None else ms / f for ms, f in zip(self.raw_ms, self.factors())]

    def timed(self) -> list[float]:
        return [ms for ms in self.latencies_ms() if ms is not None]

    def throughput_rps(self) -> float:
        """Ops completed over the loop's wall-clock seconds outside the
        kernel (gate checks and the workload's bookkeeping between ops
        included), at the reference host speed."""
        return len(self.timed()) / sum(s / f for s, f in zip(self.busy_s, self.factors()))


class _SetupDone(Exception):
    """Raised at the first op of a ``--setup-only`` run."""


def _stop_at_first_op(op):
    raise _SetupDone


def setup_seconds(args) -> list[float]:
    """Time ``SETUP_SAMPLES`` set-ups, each in a fresh interpreter:
    imports, input generation and digest checks, warm-up (for
    repair-fleet, the initial fleet deploys), up to the first op."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--setup-only",
    ]
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        samples.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return samples


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    from inputs import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    n = op_count(workload, args.seconds)
    if args.setup_only:
        before = calibrate.kernel_ms()
        try:
            workload.run(args.seed, n, gate.load_expected()[workload.name], _stop_at_first_op)
        except _SetupDone:
            setup_s = time.perf_counter() - _STARTED - before / 1e3
            factor = calibrate.factor(before, calibrate.kernel_ms())
            print(json.dumps({"setup_s": setup_s / factor}), flush=True)
            os._exit(0)  # skip tearing down the heap
        raise SystemExit("perfbench: the workload ran no op")

    load_start, steal_start = os.getloadavg(), steal_ticks()
    first = Runner()
    first.run(workload, args.seed, n)
    if not first.timed():
        raise SystemExit(f"perfbench: every op failed: {first.failures[:3]}")
    setup_here_s = first.first_start - _STARTED

    if args.trace:
        before, traced, after = Runner(), Runner(spans.Tracer()), Runner()
        for runner in (before, traced, after):
            runner.run(workload, args.seed, n)
        if any(runner.labels != first.labels for runner in (before, traced, after)):
            raise SystemExit("perfbench: the passes ran different ops")
        metrics = {
            name: {"value": value(traced.tracer, len(traced.labels)), "unit": unit}
            for name, (unit, _better, value) in spans.PER_LAYER.items()
        }
        metrics["trace.overhead_ms"] = {
            "value": statistics.median(
                t - (u + v) / 2
                for t, u, v in zip(
                    traced.latencies_ms(), before.latencies_ms(), after.latencies_ms()
                )
                if None not in (t, u, v)
            ),
            "unit": "ms",
        }
        runners = (first, before, traced, after)
    else:
        latencies = first.timed()
        values = {
            "latency_p50_ms": statistics.median(latencies),
            f"latency_p{TAIL}_ms": quantiles.percentile(latencies, TAIL),
            "throughput_rps": first.throughput_rps(),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(setup_seconds(args)),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
        runners = (first,)

    failures = [f for runner in runners for f in runner.failures]
    attempted = sum(len(runner.labels) for runner in runners)
    provenance = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": attempted,
        "inputs": gate.digest(first.labels),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "steal_ticks": steal_ticks() - steal_start,
        "setup_here_s": setup_here_s,
        "kernel_ms_median": statistics.median(first.kernel_ms),
        "raw_p50_ms": statistics.median(ms for ms in first.raw_ms if ms is not None),
        "failures": failures[:10],
        "ended_early": [r.ended_early for r in runners if r.ended_early],
    }
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
