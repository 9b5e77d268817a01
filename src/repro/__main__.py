"""Command-line interface: ``python -m repro <subcommand>``.

Subcommands
-----------
``plan``
    Plan a deployment for a spec file (the paper's pseudo-XML syntax)
    over a network JSON file.  Observability flags
    (docs/OBSERVABILITY.md): ``--trace-out FILE`` exports the run's
    telemetry (phase spans, metrics, RG search trace) to a file,
    ``--trace-format {jsonl,chrome}`` selects the JSONL event stream
    (default) or Chrome trace-event JSON loadable in Perfetto, and
    ``--metrics`` prints the Figs. 7–8 style search-progress account
    (phase wall-clock bars, prune reasons, work histograms) to stdout.
    Robustness flags (docs/ROBUSTNESS.md): ``--time-limit SECONDS``
    bounds the solve by wall clock (an expiring deadline returns the
    anytime incumbent when one exists), and ``--fallback`` walks the
    graceful-degradation ladder (full -> anytime -> coarsened levels ->
    greedy) instead of failing outright; ``--fallback --workers N``
    races the rungs in N processes instead of walking them.
    ``--hierarchical`` plans by stub-domain decomposition first
    (hierarchical -> widened -> flat), with ``--workers N`` domain
    workers; with ``--fallback`` the two ladders compose into one
    (hierarchical -> widened -> full/anytime -> coarsened -> greedy).
``simulate``
    Run a churn/fault campaign: generate a seeded fault timeline (or
    replay an explicit one from a JSON campaign spec), deploy, and repair
    after every event, with optional transient-fault injection and
    retry/backoff.  ``--json -`` emits a deterministic record — two runs
    with the same seeds serialize identically.  ``--seeds S1 S2 ...``
    runs the campaign once per seed, and ``--workers N`` fans those runs
    out over processes — same records, less wall clock
    (docs/PERFORMANCE.md).
``bench``
    Time the Table-2 sweep, optionally across ``--workers N`` processes
    and over repeated ``--rounds`` against warm compile caches.
``lint``
    Statically verify a spec/network pair before planning: monotonicity,
    level soundness, reachability, cost sanity (see docs/LINTING.md).
``analyze``
    Abstract-interpret a compiled ground problem (docs/ANALYSIS.md):
    per-variable invariant resource envelopes, dead ground actions with
    machine-checkable certificates, and verified symmetry classes of
    interchangeable nodes/components, reported as stable ``ENV/*``,
    ``DEAD/*`` and ``SYM/*`` diagnostics (``--format json`` emits the
    full artifact, envelopes and certificates included).  ``--audit``
    skips the instance arguments and instead replans every bundled
    domain with static pruning off vs. on, asserting identical outcomes;
    ``--fig10`` extends the audit to the full Table-2/fig-10 sweep.
``table2``
    Reproduce (a subset of) the paper's Table 2.
``gen-network``
    Generate a GT-ITM-style transit-stub network as JSON.
``trace summarize FILE``
    Load a trace file previously exported via ``plan --trace-out`` (either
    format, auto-detected) and print its span tree, Table-2 stat gauges,
    metric distributions, and search-event account.

Examples
--------
::

    python -m repro gen-network --seed 2004 -o large.json
    python -m repro lint --network large.json --spec app.spec \\
        --initial Server=t0_0_s0_0 --goal Client=t0_2_s2_5
    python -m repro plan --network large.json --spec app.spec \\
        --initial Server=t0_0_s0_0 --goal Client=t0_2_s2_5 \\
        --levels M.ibw=90,100
    python -m repro plan --network examples/net.json --spec examples/app.spec \\
        --initial Server=n0 --goal Client=n1 --levels M.ibw=90,100 \\
        --trace-out trace.jsonl --metrics
    python -m repro plan --network large.json --spec app.spec \\
        --initial Server=t0_0_s0_0 --goal Client=t0_2_s2_5 \\
        --levels M.ibw=100 --time-limit 1.5 --fallback
    python -m repro simulate --network examples/net.json --spec examples/app.spec \\
        --initial Server=n0 --goal Client=n1 --levels M.ibw=90,100 \\
        --campaign examples/campaign.json --json -
    python -m repro trace summarize trace.jsonl
    python -m repro table2 --networks Tiny Small --scenarios B C
"""

from __future__ import annotations

import argparse
import json
import sys

from .model import AppSpec, Leveling, LevelSpec, SpecError, parse_spec_text
from .network import TransitStubParams, load_network, network_to_dict, transit_stub_network
from .planner import PlannerConfig, PlanningError, ladder, run_ladder

__all__ = ["main"]


def _placement_pairs(items) -> list[tuple[str, str]]:
    out = []
    for item in items:
        comp, _, node = item.partition("=")
        if not node:
            raise SystemExit(f"expected COMPONENT=NODE, got {item!r}")
        out.append((comp, node))
    return out


def _leveling_from_args(items) -> Leveling:
    specs = {}
    for item in items or ():
        var, _, cuts = item.partition("=")
        if not cuts:
            raise SystemExit(f"expected VAR=c1,c2,..., got {item!r}")
        specs[var] = LevelSpec(tuple(float(c) for c in cuts.split(",")))
    return Leveling(specs, name="cli")


def _load_instance(args: argparse.Namespace) -> tuple[AppSpec, object, Leveling]:
    network = load_network(args.network)
    parsed = parse_spec_text(open(args.spec).read())
    app = AppSpec.build(
        name=args.spec,
        interfaces=parsed.interfaces,
        components=parsed.components,
        initial=_placement_pairs(args.initial),
        goals=_placement_pairs(args.goal),
    )
    return app, network, _leveling_from_args(args.levels)


def _make_live_monitor(args: argparse.Namespace):
    """A LiveMonitor (stderr) when ``--live`` was given, else ``None``."""
    if not getattr(args, "live", False):
        return None
    from .obs import LiveMonitor

    return LiveMonitor()


def _export_trace_to_stderr(args: argparse.Namespace, telemetry) -> None:
    """Handle ``--trace-out`` for the streaming commands.

    The confirmation goes to *stderr*: simulate/controller/bench stdout
    must stay byte-identical across runs regardless of trace flags.
    """
    if getattr(args, "trace_out", None) and telemetry is not None:
        from .obs import export_trace

        records = export_trace(telemetry, args.trace_out, args.trace_format)
        print(
            f"wrote {args.trace_out} ({args.trace_format}, {records} records)",
            file=sys.stderr,
        )


def _cmd_plan(args: argparse.Namespace) -> int:
    app, network, leveling = _load_instance(args)
    telemetry = None
    if args.trace_out or args.metrics or args.profile_out:
        from .obs import Telemetry

        telemetry = Telemetry()
    if args.profile_out:
        from .obs import PhaseProfiler

        telemetry.profiler = PhaseProfiler()
    from .hierarchy import HierarchyConfig

    config = PlannerConfig(
        leveling=leveling,
        strict=args.strict,
        telemetry=telemetry,
        time_limit_s=args.time_limit,
        anytime=True if args.fallback else None,
        hierarchy=HierarchyConfig(workers=args.workers) if args.hierarchical else None,
    )
    rungs = ladder(leveling, hierarchy=args.hierarchical, degrade=args.fallback)
    try:
        workers = args.workers if args.fallback else 1
        outcome = run_ladder(
            app, network, rungs, config, workers=workers, reraise=not args.fallback
        )
    except PlanningError as exc:
        print(f"no plan: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except SpecError as exc:
        print(f"spec failed strict lint: {exc}", file=sys.stderr)
        return 1
    if len(rungs) > 1:
        print(outcome.describe())
    plan = outcome.plan
    if plan is None:
        print("no plan: every ladder rung failed", file=sys.stderr)
        return 1

    print(plan.describe())
    report = plan.execute()
    s = plan.stats
    print(f"\ncost lower bound : {plan.cost_lb:g}")
    print(f"exact cost       : {report.total_cost:g}")
    print(
        f"phase times (ms) : compile {s.compile_ms:.1f}, plrg {s.plrg_ms:.1f}, "
        f"slrg {s.slrg_ms:.1f}, rg {s.rg_ms:.1f} (search total {s.total_ms:.1f})"
    )
    print(f"rg nodes         : {s.rg_nodes} created, {s.rg_expanded} expanded")
    print(f"replay work      : {s.replay_summary()}")
    if args.metrics:
        from .obs import render_phase_report

        print()
        print(render_phase_report(telemetry))
    if args.trace_out:
        from .obs import export_trace

        records = export_trace(telemetry, args.trace_out, args.trace_format)
        print(f"wrote {args.trace_out} ({args.trace_format}, {records} records)")
    if args.profile_out:
        paths = telemetry.profiler.write(args.profile_out)
        print(f"wrote {len(paths)} profile file(s): {', '.join(paths)}")
    if args.json:
        payload = {
            "actions": plan.action_names(),
            "cost_lower_bound": plan.cost_lb,
            "exact_cost": report.total_cost,
            "consumed": report.consumed,
        }
        open(args.json, "w").write(json.dumps(payload, indent=2))
        print(f"wrote {args.json}")
    return 0


def _report_task_failure(args: argparse.Namespace, exc) -> int:
    """Render a multi-task :class:`~repro.parallel.TaskFailed` loudly.

    Every failed index is reported — the message carries them all, and
    ``--json`` gets a structured failure document (``error`` /
    ``failed_indices`` / per-index messages) instead of a partial or
    missing record.
    """
    print(exc, file=sys.stderr)
    if args.json:
        payload_doc = {
            "error": "task_failed",
            "failed_indices": list(exc.indices),
            "failures": {
                str(i): {"message": message, "remote_traceback": remote_tb}
                for i, (message, remote_tb) in sorted(exc.failures.items())
            },
        }
        payload = json.dumps(payload_doc, indent=2, sort_keys=True)
        if args.json == "-":
            print(payload)
        else:
            open(args.json, "w").write(payload + "\n")
            print(f"wrote {args.json}", file=sys.stderr)
    return 1


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .parallel import TaskFailed
    from .simulate.campaign import run_campaign, run_campaign_run

    app, network, leveling = _load_instance(args)
    spec = json.load(open(args.campaign)) if args.campaign else {}
    telemetry = None
    if args.metrics or args.trace_out:
        from .obs import Telemetry

        telemetry = Telemetry()
    monitor = _make_live_monitor(args)

    journal = None
    if args.checkpoint:
        if not args.seeds:
            print("--checkpoint requires --seeds (multi-seed campaign)", file=sys.stderr)
            return 2
        from .simulate import JournalMismatch, RunJournal, campaign_fingerprint

        fingerprint = campaign_fingerprint(
            app, network, leveling, spec,
            seeds=args.seeds, events=args.events,
            time_limit_s=args.time_limit, include_timings=args.timings,
        )
        try:
            journal = RunJournal(args.checkpoint, fingerprint, resume=args.resume)
        except JournalMismatch as exc:
            print(f"cannot resume: {exc}", file=sys.stderr)
            return 2
        if args.resume and len(journal):
            print(
                f"resuming: {len(journal)} run(s) replayed from {args.checkpoint}",
                file=sys.stderr,
            )

    try:
        if args.seeds:
            # Multi-seed campaign: one run per seed, optionally fanned out
            # over supervised worker processes; the document is
            # byte-identical at any worker count for fixed seeds, worker
            # deaths and checkpoint resume included.
            doc = run_campaign(
                app,
                network,
                leveling,
                spec,
                seeds=args.seeds,
                events=args.events,
                time_limit_s=args.time_limit,
                include_timings=args.timings,
                telemetry=telemetry,
                workers=args.workers,
                on_frame=monitor.on_frame if monitor is not None else None,
                journal=journal,
                inject_kill=args.inject_kill or (),
            )
            failed = 0
            for run in doc["runs"]:
                print(f"--- seed {run['seed']} ---")
                print(run["description"])
                if run["record"] is None or "failure" in run["record"]["initial"]:
                    failed += 1
            payload_doc = {
                "format": doc["format"],
                "runs": [
                    {"seed": r["seed"], "record": r["record"]} for r in doc["runs"]
                ],
            }
            ok = failed == 0
        else:
            result = run_campaign_run(
                app,
                network,
                leveling,
                spec,
                seed=args.seed,
                events=args.events,
                time_limit_s=args.time_limit,
                telemetry=telemetry,
            )
            print(result.describe())
            payload_doc = result.to_dict(include_timings=args.timings)
            ok = result.initial_plan is not None
    except TypeError as exc:
        print(f"invalid campaign fault model: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"invalid campaign event: {exc}", file=sys.stderr)
        return 1
    except TaskFailed as exc:
        return _report_task_failure(args, exc)
    finally:
        if journal is not None:
            journal.close()

    if monitor is not None:
        monitor.finish()
    if args.metrics:
        print()
        print(telemetry.metrics.render_text())
    _export_trace_to_stderr(args, telemetry)
    if args.json:
        payload = json.dumps(payload_doc, indent=2, sort_keys=True)
        if args.json == "-":
            print(payload)
        else:
            open(args.json, "w").write(payload + "\n")
            # stderr: stdout must stay byte-identical across same-seed runs
            # regardless of the output path (the fault-smoke CI job diffs it).
            print(f"wrote {args.json}", file=sys.stderr)
    return 0 if ok else 1


def _cmd_controller(args: argparse.Namespace) -> int:
    from .parallel import TaskFailed
    from .simulate.controller import run_controller

    app, network, leveling = _load_instance(args)
    spec = json.load(open(args.campaign)) if args.campaign else {}
    if args.delta:
        spec = dict(spec, delta_replanning=True)
    telemetry = None
    if args.metrics or args.trace_out:
        from .obs import Telemetry

        telemetry = Telemetry()
    monitor = _make_live_monitor(args)

    journal = None
    if args.checkpoint:
        from .simulate import JournalMismatch, RunJournal, controller_fingerprint

        fingerprint = controller_fingerprint(
            app, network, leveling, spec,
            fleet=args.fleet, seed=args.seed, events=args.events,
            time_limit_s=args.time_limit, include_timings=args.timings,
        )
        try:
            journal = RunJournal(args.checkpoint, fingerprint, resume=args.resume)
        except JournalMismatch as exc:
            print(f"cannot resume: {exc}", file=sys.stderr)
            return 2
        if args.resume and len(journal):
            print(
                f"resuming: {len(journal)} step(s) replayed from {args.checkpoint}",
                file=sys.stderr,
            )

    try:
        record = run_controller(
            app,
            network,
            leveling,
            spec,
            fleet=args.fleet,
            seed=args.seed,
            events=args.events,
            time_limit_s=args.time_limit,
            include_timings=args.timings,
            telemetry=telemetry,
            workers=args.workers,
            on_frame=monitor.on_frame if monitor is not None else None,
            journal=journal,
            inject_kill=args.inject_kill or (),
        )
    except TypeError as exc:
        print(f"invalid campaign fault model: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"invalid campaign event: {exc}", file=sys.stderr)
        return 1
    except TaskFailed as exc:
        return _report_task_failure(args, exc)
    finally:
        if journal is not None:
            journal.close()

    summary = record["summary"]
    print(
        f"fleet {summary['fleet']}, events {summary['events']}: "
        f"{summary['repairs']} repairs, {summary['outages']} outages, "
        f"{summary['redeployments']} redeployments, "
        f"availability {summary['availability']:.3f}"
    )
    print(
        f"repair compiles: {summary['delta_hits']} warm (cache/delta), "
        f"{summary['delta_full']} full"
    )
    if monitor is not None:
        monitor.finish()
    if args.metrics:
        print()
        print(telemetry.metrics.render_text())
    _export_trace_to_stderr(args, telemetry)
    if args.json:
        payload = json.dumps(record, indent=2, sort_keys=True)
        if args.json == "-":
            print(payload)
        else:
            open(args.json, "w").write(payload + "\n")
            # stderr: stdout must stay byte-identical across same-seed runs
            # (the controller-smoke CI job diffs it).
            print(f"wrote {args.json}", file=sys.stderr)
    initial_ok = all(entry["deployed"] for entry in record["initial"])
    return 0 if initial_ok else 1


def _cmd_bench_hierarchy(args: argparse.Namespace) -> int:
    """Flat vs hierarchical planning across the domain-count family."""
    from .experiments import format_table, scaling_compare_sweep

    points = scaling_compare_sweep(
        stub_domains=tuple(args.stub_domains),
        flat_time_limit_s=args.flat_time_limit,
        workers=args.workers,
    )
    rows = []
    for p in points:
        rows.append(
            [
                str(p.nodes),
                f"{p.flat_ms:.0f}" if p.flat_solved else p.flat_failure or "—",
                f"{p.flat_cost:g}" if p.flat_solved else "—",
                f"{p.hier_ms:.0f}" if p.hier_solved else "—",
                f"{p.hier_cost:g}" if p.hier_solved else "—",
                p.hier_mode or "—",
                f"{p.speedup:.1f}x" if p.speedup is not None else "—",
                "—" if p.cost_delta is None else ("0" if abs(p.cost_delta) < 1e-9 else f"{p.cost_delta:g}"),
            ]
        )
    print(
        format_table(
            ["nodes", "flat ms", "flat cost", "hier ms", "hier cost", "mode", "speedup", "Δcost"],
            rows,
        )
    )
    if args.json:
        payload = {
            "format": 1,
            "suite": "hierarchy",
            "workers": args.workers,
            "points": [p.to_dict() for p in points],
        }
        text = json.dumps(payload, indent=2, sort_keys=True)
        if args.json == "-":
            print(text)
        else:
            with open(args.json, "w") as fh:
                fh.write(text + "\n")
            print(f"wrote {args.json}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    """Time the Table-2 sweep, serially or across worker processes."""
    import time as _time

    if args.hierarchical:
        return _cmd_bench_hierarchy(args)

    from .experiments import render_table2
    from .experiments.harness import _run_table2_parallel, run_table2
    from .parallel import Supervisor, default_compile_cache, resolve_workers

    networks = tuple(args.networks)
    scenarios = tuple(args.scenarios)
    workers = resolve_workers(args.workers, len(networks) * len(scenarios))
    cache = None if args.no_cache else default_compile_cache()
    telemetry = None
    if args.metrics or args.trace_out:
        from .obs import Telemetry

        telemetry = Telemetry()
    monitor = _make_live_monitor(args)
    on_frame = monitor.on_frame if monitor is not None else None
    profile_sink: list | None = [] if args.profile_out else None
    round_s: list[float] = []
    rows = []
    pool = Supervisor(workers, telemetry=telemetry) if workers > 1 else None
    try:
        for _ in range(args.rounds):
            t0 = _time.perf_counter()
            if pool is not None:
                # A persistent supervised pool keeps per-worker compile
                # caches warm across rounds (deterministic sharding pins
                # each cell to one worker), so repeat rounds skip
                # compilation — and a worker death mid-round respawns and
                # retries instead of aborting the bench.
                rows = _run_table2_parallel(
                    networks,
                    scenarios,
                    workers,
                    compile_cache=cache,
                    pool=pool,
                    telemetry=telemetry,
                    static_prune=args.static_prune,
                    on_frame=on_frame,
                    profile_sink=profile_sink,
                )
            else:
                rows = run_table2(
                    networks,
                    scenarios,
                    compile_cache=cache,
                    telemetry=telemetry,
                    static_prune=args.static_prune,
                    on_frame=on_frame,
                    profile_sink=profile_sink,
                )
            round_s.append(_time.perf_counter() - t0)
    finally:
        if pool is not None:
            pool.close()

    if monitor is not None:
        monitor.finish()
    print(render_table2(rows))
    print()
    print(f"workers {workers}, rounds {args.rounds}, cache {'off' if args.no_cache else 'on'}")
    for i, s in enumerate(round_s):
        print(f"  round {i}: {s * 1e3:.0f} ms")
    print(f"  best: {min(round_s) * 1e3:.0f} ms")
    if cache is not None and workers == 1:
        # Includes analysis_hits/analysis_misses when --static-prune rode
        # the analysis result along on the cache entries.
        print(f"  cache: {cache.stats()}")
    if args.metrics:
        print()
        print(telemetry.metrics.render_text())
    _export_trace_to_stderr(args, telemetry)
    if profile_sink is not None:
        from .obs import merge_profile_blobs, write_pstats

        written = []
        merged = merge_profile_blobs([blob for _pid, blob in profile_sink])
        if merged is not None:
            write_pstats(merged, args.profile_out)
            written.append(args.profile_out)
        by_pid: dict[int, list[bytes]] = {}
        for pid, blob in profile_sink:
            by_pid.setdefault(pid, []).append(blob)
        if len(by_pid) > 1:
            for pid in sorted(by_pid):
                stats = merge_profile_blobs(by_pid[pid])
                pid_path = f"{args.profile_out}.pid{pid}.pstats"
                write_pstats(stats, pid_path)
                written.append(pid_path)
        print(
            f"wrote {len(written)} profile file(s): {', '.join(written)}",
            file=sys.stderr,
        )
    if args.json:
        payload = {
            "format": 1,
            "workers": workers,
            "static_prune": args.static_prune,
            "rounds_s": [round(s, 6) for s in round_s],
            "cache": cache.stats() if cache is not None and workers == 1 else None,
            "cells": [row.to_record() for row in rows],
        }
        text = json.dumps(payload, indent=2, sort_keys=True)
        if args.json == "-":
            print(text)
        else:
            with open(args.json, "w") as fh:
                fh.write(text + "\n")
            print(f"wrote {args.json}")
    return 0


def _cmd_trace_summarize(args: argparse.Namespace) -> int:
    from .obs import TraceFileError, load_trace, summarize_trace

    try:
        trace = load_trace(args.file)
    except TraceFileError as exc:
        print(f"invalid trace file: {exc}", file=sys.stderr)
        return 1
    print(summarize_trace(trace))
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from .lint import LintOptions, lint_app

    app, network, leveling = _load_instance(args)
    report = lint_app(
        app, network, leveling, options=LintOptions(deep=not args.no_deep)
    )
    if args.format == "json":
        print(report.to_json())
    else:
        print(report.render_text())
    if report.has_errors():
        return 1
    if args.werror and report.warnings:
        return 1
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    if args.audit or args.fig10:
        from .analysis.audit import run_audit

        rows = run_audit(
            mode=args.prune,
            fig10=args.fig10,
            progress=lambda name: print(f"auditing {name} ...", file=sys.stderr),
        )
        if args.format == "json":
            print(json.dumps([r.to_record() for r in rows], indent=2, sort_keys=True))
        else:
            for r in rows:
                verdict = "ok" if r.ok else "MISMATCH"
                cost = "-" if r.cost_on is None else f"{r.cost_on:g}"
                print(
                    f"{r.case:<18} {r.status_on:<18} cost={cost:<8} "
                    f"rg {r.rg_expanded_off}->{r.rg_expanded_on} "
                    f"dead={r.dead_actions} sym={r.sym_pruned}  {verdict}"
                )
        bad = [r for r in rows if not r.ok]
        if bad:
            print(f"audit FAILED: {len(bad)} case(s) diverged", file=sys.stderr)
            return 1
        print(f"audit passed: {len(rows)} cases identical", file=sys.stderr)
        return 0

    if not (args.network and args.spec and args.goal):
        print(
            "analyze: either give --audit/--fig10 or a full instance "
            "(--network, --spec, --goal)",
            file=sys.stderr,
        )
        return 2
    from .compile import compile_problem

    app, network, leveling = _load_instance(args)
    problem = compile_problem(app, network, leveling, analyze=True)
    result = problem.analysis
    if args.format == "json":
        print(json.dumps(result.to_payload(), indent=2, sort_keys=True))
    else:
        print(result.render_text())
    return 0


def _cmd_table2(args: argparse.Namespace) -> int:
    from .experiments import render_table1, render_table2, run_cell

    print(render_table1())
    print()
    rows = [
        run_cell(net, scen)
        for net in args.networks
        for scen in args.scenarios
    ]
    print(render_table2(rows))
    return 0


def _cmd_gen_network(args: argparse.Namespace) -> int:
    params = TransitStubParams(
        transit_nodes_per_domain=args.transit_nodes,
        stub_domains_per_transit=args.stubs_per_transit,
        stub_size=args.stub_size,
        node_cpu=args.cpu,
        lan_bandwidth=args.lan_bw,
        wan_bandwidth=args.wan_bw,
        seed=args.seed,
    )
    net = transit_stub_network(params)
    payload = json.dumps(network_to_dict(net), indent=2, sort_keys=True)
    if args.output == "-":
        print(payload)
    else:
        open(args.output, "w").write(payload)
        print(f"wrote {args.output}: {len(net)} nodes, {len(net.links)} links")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_instance_args(p: argparse.ArgumentParser, required: bool = True) -> None:
        p.add_argument("--network", required=required, help="network JSON file")
        p.add_argument("--spec", required=required, help="pseudo-XML spec file")
        p.add_argument("--initial", nargs="+", default=[], metavar="COMP=NODE")
        p.add_argument("--goal", nargs="+", required=required, metavar="COMP=NODE")
        p.add_argument("--levels", nargs="*", metavar="VAR=c1,c2,...")

    def add_streaming_args(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--live",
            action="store_true",
            help="render a live fleet view on stderr while the run streams "
            "worker telemetry frames (docs/OBSERVABILITY.md)",
        )
        p.add_argument(
            "--trace-out",
            metavar="FILE",
            help="export the run's telemetry — including worker spans "
            "stitched into per-process lanes — after the run",
        )
        p.add_argument(
            "--trace-format",
            choices=("jsonl", "chrome"),
            default="jsonl",
            help="trace file format: JSONL event stream or Chrome "
            "trace-event JSON",
        )

    p_plan = sub.add_parser("plan", help="plan a deployment")
    add_instance_args(p_plan)
    p_plan.add_argument("--json", help="also write the plan as JSON")
    p_plan.add_argument(
        "--strict",
        action="store_true",
        help="lint the spec first and refuse to plan on lint errors",
    )
    p_plan.add_argument(
        "--trace-out",
        metavar="FILE",
        help="export the run's telemetry (spans, metrics, search trace)",
    )
    p_plan.add_argument(
        "--trace-format",
        choices=("jsonl", "chrome"),
        default="jsonl",
        help="trace file format: JSONL event stream or Chrome trace-event JSON",
    )
    p_plan.add_argument(
        "--metrics",
        action="store_true",
        help="print the search-progress account (spans, histograms, prune reasons)",
    )
    p_plan.add_argument(
        "--time-limit",
        type=float,
        metavar="SECONDS",
        help="wall-clock budget; an expiring deadline returns the anytime "
        "incumbent plan when one exists (docs/ROBUSTNESS.md)",
    )
    p_plan.add_argument(
        "--fallback",
        action="store_true",
        help="walk the graceful-degradation ladder (full -> anytime -> "
        "coarsened levels -> greedy) instead of failing outright",
    )
    p_plan.add_argument(
        "--hierarchical",
        action="store_true",
        help="plan by stub-domain decomposition on transit-stub networks "
        "(backbone over an abstracted network, per-domain subproblems in "
        "--workers processes, stitched and exactly validated; falls back "
        "to flat planning when the network does not decompose; with "
        "--fallback the degradation rungs follow)",
    )
    p_plan.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="with --fallback: race the ladder rungs in N processes, each "
        "with the whole time budget; the best rung that succeeds wins "
        "(docs/ROBUSTNESS.md). With --hierarchical alone: solve the stub "
        "domains in N processes. No effect on a plain solve.",
    )
    p_plan.add_argument(
        "--profile-out",
        metavar="PREFIX",
        help="capture an exclusive cProfile per planner phase and write "
        "PREFIX (merged pstats) plus PREFIX.<phase>.pstats files",
    )
    p_plan.set_defaults(fn=_cmd_plan)

    p_sim = sub.add_parser("simulate", help="run a churn/fault campaign")
    add_instance_args(p_sim)
    p_sim.add_argument(
        "--campaign",
        metavar="FILE",
        help="JSON campaign spec: fault model, explicit events, injector, "
        "retry policy, planner bounds (see docs/ROBUSTNESS.md)",
    )
    p_sim.add_argument(
        "--seed", type=int, help="override the fault model's timeline seed"
    )
    p_sim.add_argument(
        "--events", type=int, help="override the fault model's timeline length"
    )
    p_sim.add_argument(
        "--time-limit",
        type=float,
        metavar="SECONDS",
        help="per-repair wall-clock budget (campaign spec takes precedence)",
    )
    p_sim.add_argument(
        "--json",
        metavar="FILE",
        help="write the campaign record as JSON ('-' for stdout); "
        "deterministic for fixed seeds unless --timings is given",
    )
    p_sim.add_argument(
        "--timings",
        action="store_true",
        help="include wall-clock timings in the JSON record",
    )
    p_sim.add_argument(
        "--seeds",
        type=int,
        nargs="+",
        metavar="SEED",
        help="run the campaign once per seed (multi-run document); "
        "combine with --workers to fan the runs out over processes",
    )
    p_sim.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="with --seeds: run campaigns in N worker processes (one run "
        "per task); records are identical to --workers 1 for fixed seeds",
    )
    p_sim.add_argument(
        "--metrics",
        action="store_true",
        help="print the merged metrics registry after the run(s), "
        "including cache.hit / cache.miss compile-cache counters",
    )
    p_sim.add_argument(
        "--checkpoint",
        metavar="FILE",
        help="with --seeds: journal each completed run to a crash-safe "
        "JSONL checkpoint as it finishes (docs/ROBUSTNESS.md)",
    )
    p_sim.add_argument(
        "--resume",
        action="store_true",
        help="replay an existing --checkpoint journal and skip finished "
        "runs; the resumed document is byte-identical to an "
        "uninterrupted run",
    )
    p_sim.add_argument(
        "--inject-kill",
        type=int,
        nargs="+",
        metavar="TASK",
        help="fault injection: SIGKILL the worker assigned each listed "
        "task index right before it runs, once (supervision testing)",
    )
    add_streaming_args(p_sim)
    p_sim.set_defaults(fn=_cmd_simulate)

    p_ctl = sub.add_parser(
        "controller",
        help="replay a fault timeline against a fleet of deployments",
    )
    add_instance_args(p_ctl)
    p_ctl.add_argument(
        "--campaign",
        metavar="FILE",
        help="JSON campaign spec (same format as simulate, plus 'fleet' "
        "and 'delta_replanning'; see docs/ROBUSTNESS.md)",
    )
    p_ctl.add_argument(
        "--fleet", type=int, help="fleet size (overrides the spec's 'fleet')"
    )
    p_ctl.add_argument(
        "--delta",
        action="store_true",
        help="compile repair problems by patching each member's previous "
        "network state (spec key 'delta_replanning'); records are "
        "identical with or without, only time-to-recover changes",
    )
    p_ctl.add_argument(
        "--seed", type=int, help="override the fault model's timeline seed"
    )
    p_ctl.add_argument(
        "--events", type=int, help="override the fault model's timeline length"
    )
    p_ctl.add_argument(
        "--time-limit",
        type=float,
        metavar="SECONDS",
        help="per-repair wall-clock budget (campaign spec takes precedence)",
    )
    p_ctl.add_argument(
        "--json",
        metavar="FILE",
        help="write the controller record as JSON ('-' for stdout); "
        "deterministic for fixed seeds unless --timings is given",
    )
    p_ctl.add_argument(
        "--timings",
        action="store_true",
        help="include wall-clock time-to-recover figures in the record",
    )
    p_ctl.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="fan the per-event repair queue out over N worker processes "
        "(one member per task); records are identical to --workers 1",
    )
    p_ctl.add_argument(
        "--metrics",
        action="store_true",
        help="print the metrics registry after the run, including the "
        "repair.ttr histogram and repair.delta.hit/full counters",
    )
    p_ctl.add_argument(
        "--checkpoint",
        metavar="FILE",
        help="journal the initial deploy and each completed step to a "
        "crash-safe JSONL checkpoint (docs/ROBUSTNESS.md)",
    )
    p_ctl.add_argument(
        "--resume",
        action="store_true",
        help="replay an existing --checkpoint journal and skip finished "
        "steps; the resumed record is byte-identical to an "
        "uninterrupted run",
    )
    p_ctl.add_argument(
        "--inject-kill",
        type=int,
        nargs="+",
        metavar="TASK",
        help="fault injection: SIGKILL the worker assigned each listed "
        "batch-task index in the first executed batch (supervision testing)",
    )
    add_streaming_args(p_ctl)
    p_ctl.set_defaults(fn=_cmd_controller)

    p_bench = sub.add_parser(
        "bench", help="time the Table-2 sweep (serial or parallel)"
    )
    p_bench.add_argument("--networks", nargs="+", default=["Tiny", "Small", "Large"])
    p_bench.add_argument("--scenarios", nargs="+", default=["B", "C", "D", "E"])
    p_bench.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="fan cells out over N worker processes (deterministic sharding)",
    )
    p_bench.add_argument(
        "--rounds",
        type=int,
        default=1,
        metavar="R",
        help="repeat the sweep R times against persistent workers; warm "
        "compile caches make repeat rounds cheap",
    )
    p_bench.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the warm-start compile cache",
    )
    p_bench.add_argument(
        "--static-prune",
        choices=("off", "dead", "symmetry", "full"),
        default=None,
        metavar="MODE",
        help="plan every cell with certified static pruning (docs/ANALYSIS.md); "
        "the analysis result is cached alongside the compiled problem",
    )
    p_bench.add_argument(
        "--metrics",
        action="store_true",
        help="print the merged metrics registry after the sweep, including "
        "cache.hit/miss and cache.analysis.hit/miss counters",
    )
    p_bench.add_argument(
        "--json", metavar="FILE", help="write timings and cell records ('-' for stdout)"
    )
    p_bench.add_argument(
        "--profile-out",
        metavar="PREFIX",
        help="capture a cProfile per cell (in the workers, when parallel) "
        "and write PREFIX (merged pstats) plus per-pid PREFIX.pidN.pstats",
    )
    p_bench.add_argument(
        "--hierarchical",
        action="store_true",
        help="bench flat vs hierarchical planning over the 1k-10k-node "
        "domain-count scaling family instead of the Table-2 sweep",
    )
    p_bench.add_argument(
        "--stub-domains",
        nargs="+",
        type=int,
        default=[4, 11, 33],
        metavar="S",
        help="with --hierarchical: stub-domain counts to sweep "
        "(network size is 3 + 30*S nodes)",
    )
    p_bench.add_argument(
        "--flat-time-limit",
        type=float,
        default=120.0,
        metavar="SECONDS",
        help="with --hierarchical: wall-clock budget per flat solve",
    )
    add_streaming_args(p_bench)
    p_bench.set_defaults(fn=_cmd_bench)

    p_lint = sub.add_parser(
        "lint", help="statically verify a spec against a network"
    )
    add_instance_args(p_lint)
    p_lint.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    p_lint.add_argument(
        "--no-deep",
        action="store_true",
        help="skip the compile-based ground reachability check",
    )
    p_lint.add_argument(
        "--werror", action="store_true", help="exit non-zero on warnings too"
    )
    p_lint.set_defaults(fn=_cmd_lint)

    p_ana = sub.add_parser(
        "analyze",
        help="abstract-interpret a ground problem: envelopes, dead actions, "
        "symmetry classes (docs/ANALYSIS.md)",
    )
    add_instance_args(p_ana, required=False)
    p_ana.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    p_ana.add_argument(
        "--audit",
        action="store_true",
        help="instead of analyzing one instance, replan every bundled domain "
        "with static pruning off vs. on and require identical outcomes",
    )
    p_ana.add_argument(
        "--fig10",
        action="store_true",
        help="extend --audit to the full Table-2/fig-10 sweep (implies --audit)",
    )
    p_ana.add_argument(
        "--prune",
        choices=("dead", "symmetry", "full"),
        default="full",
        help="static_prune mode the audit runs against (default: full)",
    )
    p_ana.set_defaults(fn=_cmd_analyze)

    p_t2 = sub.add_parser("table2", help="reproduce Table 2")
    p_t2.add_argument("--networks", nargs="+", default=["Tiny", "Small", "Large"])
    p_t2.add_argument("--scenarios", nargs="+", default=["A", "B", "C", "D", "E"])
    p_t2.set_defaults(fn=_cmd_table2)

    p_trace = sub.add_parser("trace", help="inspect exported planner traces")
    trace_sub = p_trace.add_subparsers(dest="trace_command", required=True)
    p_summarize = trace_sub.add_parser(
        "summarize", help="summarize a trace file exported via plan --trace-out"
    )
    p_summarize.add_argument("file", help="trace file (JSONL or Chrome, auto-detected)")
    p_summarize.set_defaults(fn=_cmd_trace_summarize)

    p_gen = sub.add_parser("gen-network", help="generate a transit-stub network")
    p_gen.add_argument("--transit-nodes", type=int, default=3)
    p_gen.add_argument("--stubs-per-transit", type=int, default=3)
    p_gen.add_argument("--stub-size", type=int, default=10)
    p_gen.add_argument("--cpu", type=float, default=30.0)
    p_gen.add_argument("--lan-bw", type=float, default=150.0)
    p_gen.add_argument("--wan-bw", type=float, default=70.0)
    p_gen.add_argument("--seed", type=int, default=2004)
    p_gen.add_argument("-o", "--output", default="-")
    p_gen.set_defaults(fn=_cmd_gen_network)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
