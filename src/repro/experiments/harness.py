"""Experiment harness: runs the paper's evaluation and collects rows.

The central entry point is :func:`run_cell`, which solves one
(network, scenario) pair of Table 2 and returns a :class:`Table2Row`
holding both halves of the table — solution quality (cost lower bound,
plan length, reserved LAN bandwidth) and planner work (action counts,
graph sizes, timings).
"""

from __future__ import annotations

import os
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

from ..domains.media import DEFAULT_DEMAND, DEFAULT_SOURCE_BW, build_app
from ..obs import Telemetry, maybe_span
from ..planner import (
    Plan,
    Planner,
    PlannerConfig,
    PlanningError,
    ResourceInfeasible,
    Unsolvable,
)
from .networks import NetworkCase, network_case
from .scenarios import Scenario, scenario

__all__ = ["Table2Row", "run_cell", "run_table2", "TABLE2_NETWORKS", "TABLE2_SCENARIOS"]

TABLE2_NETWORKS = ("Tiny", "Small", "Large")
TABLE2_SCENARIOS = ("B", "C", "D", "E")


@dataclass
class Table2Row:
    """One row of Table 2 (plus the failure case of scenario A)."""

    network: str
    scenario: str
    solved: bool
    failure: str = ""
    # quality of the solution
    cost_lower_bound: float = 0.0
    actions_in_plan: int = 0
    reserved_lan_bw: float | None = None  # None = N/A (no LAN links)
    exact_cost: float = 0.0
    delivered_bw: float = 0.0
    # work done by the planner
    total_actions: int = 0
    plrg_props: int = 0
    plrg_actions: int = 0
    slrg_nodes: int = 0
    rg_nodes: int = 0
    rg_queue_left: int = 0
    total_ms: float = 0.0
    search_ms: float = 0.0
    plan: Plan | None = field(default=None, repr=False)
    plan_names: tuple[str, ...] = ()
    """Action names of the plan — survives the trip back from a worker
    process, where ``plan`` (which drags the compiled problem along) is
    deliberately stripped.  Filled on every solved cell."""

    def to_record(self, include_timings: bool = False) -> dict:
        """Deterministic JSON-ready record of this cell.

        Timings are excluded by default so records are byte-identical
        across runs and worker counts (the determinism suite relies on
        this); pass ``include_timings=True`` for human-facing exports.
        """
        record = {
            "network": self.network,
            "scenario": self.scenario,
            "solved": self.solved,
            "failure": self.failure,
            "cost_lower_bound": self.cost_lower_bound,
            "actions_in_plan": self.actions_in_plan,
            "reserved_lan_bw": self.reserved_lan_bw,
            "exact_cost": self.exact_cost,
            "delivered_bw": self.delivered_bw,
            "total_actions": self.total_actions,
            "plrg_props": self.plrg_props,
            "plrg_actions": self.plrg_actions,
            "slrg_nodes": self.slrg_nodes,
            "rg_nodes": self.rg_nodes,
            "rg_queue_left": self.rg_queue_left,
            "plan": list(self.plan.action_names()) if self.plan is not None
            else list(self.plan_names),
        }
        if include_timings:
            record["total_ms"] = self.total_ms
            record["search_ms"] = self.search_ms
        return record

    def cells(self) -> list[str]:
        """Formatted cells in the paper's column order."""
        if not self.solved:
            return [self.network, self.scenario, "—", "—", "—",
                    str(self.total_actions), "—", "—", "—", self.failure]
        lan = "N/A" if self.reserved_lan_bw is None else f"{self.reserved_lan_bw:g}"
        return [
            self.network,
            self.scenario,
            f"{self.cost_lower_bound:g}",
            str(self.actions_in_plan),
            lan,
            str(self.total_actions),
            f"{self.plrg_props} / {self.plrg_actions}",
            str(self.slrg_nodes),
            f"{self.rg_nodes} / {self.rg_queue_left}",
            f"{self.total_ms:.0f} / {self.search_ms:.0f}",
        ]


def run_cell(
    case: NetworkCase | str,
    scen: Scenario | str,
    source_bw: float = DEFAULT_SOURCE_BW,
    demand: float = DEFAULT_DEMAND,
    rg_node_budget: int = 500_000,
    telemetry: Telemetry | None = None,
    compile_cache=None,
    static_prune: str | None = None,
) -> Table2Row:
    """Solve one (network, scenario) cell of the paper's evaluation.

    With ``telemetry``, the whole cell is wrapped in a ``scenario`` span
    (the planner's phase spans nest inside it), so a full ``run_table2``
    export shows every cell on one timeline.  With ``compile_cache`` (a
    :class:`repro.parallel.CompileCache`), compilation of repeated cells
    is served from the cache — identical results, near-zero compile time
    on a hit.  ``static_prune`` (off/dead/symmetry/full) enables the
    certified static pruning of docs/ANALYSIS.md; with a cache, the
    analysis result is cached alongside the compiled problem.
    """
    if isinstance(case, str):
        case = network_case(case)
    if isinstance(scen, str):
        scen = scenario(scen)

    app = build_app(case.server, case.client, source_bw=source_bw, demand=demand)
    leveling = scen.leveling()
    planner = Planner(
        PlannerConfig(
            leveling=leveling,
            rg_node_budget=rg_node_budget,
            telemetry=telemetry,
            static_prune=static_prune,
        )
    )
    row = Table2Row(network=case.key, scenario=scen.key, solved=False)
    with maybe_span(
        telemetry, "scenario", network=case.key, scenario=scen.key
    ) as span:
        t0 = time.perf_counter()
        try:
            if compile_cache is not None:
                problem = compile_cache.compile(
                    app,
                    case.network,
                    leveling,
                    analyze=static_prune not in (None, "off"),
                    metrics=telemetry.metrics if telemetry is not None else None,
                )
            else:
                problem = planner.compile(app, case.network)
            row.total_actions = len(problem.actions)
            plan = planner.solve(problem=problem)
        except (Unsolvable, ResourceInfeasible, PlanningError) as exc:
            row.failure = type(exc).__name__
            row.total_ms = (time.perf_counter() - t0) * 1e3
            if span is not None:
                span.attrs["failure"] = row.failure
            return row

        report = plan.execute()
        lan_vars = case.lan_link_vars()
        row.solved = True
        row.plan = plan
        row.plan_names = tuple(plan.action_names())
        row.cost_lower_bound = plan.cost_lb
        row.actions_in_plan = len(plan)
        row.reserved_lan_bw = report.max_consumed(lan_vars) if lan_vars else None
        row.exact_cost = report.total_cost
        row.delivered_bw = report.value(f"ibw:M@{case.client}")
        row.plrg_props = plan.stats.plrg_prop_nodes
        row.plrg_actions = plan.stats.plrg_action_nodes
        row.slrg_nodes = plan.stats.slrg_set_nodes
        row.rg_nodes = plan.stats.rg_nodes
        row.rg_queue_left = plan.stats.rg_queue_left
        row.total_ms = plan.stats.total_ms + plan.stats.compile_ms
        row.search_ms = plan.stats.search_ms
        if span is not None:
            span.attrs.update(cost_lb=plan.cost_lb, plan_actions=len(plan))
        return row


def run_table2(
    networks: tuple[str, ...] = TABLE2_NETWORKS,
    scenarios: tuple[str, ...] = TABLE2_SCENARIOS,
    workers: int = 1,
    on_frame=None,
    stream_interval_s: float | None = None,
    profile_sink: list | None = None,
    **kwargs,
) -> list[Table2Row]:
    """Reproduce Table 2: every (network, scenario) pair.

    With ``workers > 1`` the cells fan out over a spawn-started process
    pool (:mod:`repro.parallel`), one cell per task, sharded
    deterministically.  Rows come back in the same (network, scenario)
    order as the serial walk, worker metrics are merged into the caller's
    telemetry in task order, and every row's ``plan`` field is ``None``
    (``plan_names`` carries the actions — compiled problems stay in the
    workers).  Worker *spans* ride home in the metrics snapshots and are
    stitched under the coordinator's ``table2.fanout`` dispatch span
    (per-pid lanes in the exporters).

    ``on_frame`` attaches a live telemetry stream (``--live``): workers
    push :mod:`repro.obs.stream` frames while running; the serial walk
    emits equivalent worker-0 frames itself (without per-task metric
    deltas — the caller's registry already has them).  ``profile_sink``
    collects per-cell cProfile blobs as ``(pid, blob)`` tuples
    (``repro bench --profile-out``).
    """
    if workers > 1:
        return _run_table2_parallel(
            networks,
            scenarios,
            workers,
            on_frame=on_frame,
            stream_interval_s=stream_interval_s,
            profile_sink=profile_sink,
            **kwargs,
        )
    from ..obs import capture_profile, make_frame

    total = len(networks) * len(scenarios)
    rows: list[Table2Row] = []
    for net_key in networks:
        case = network_case(net_key)
        for scen_key in scenarios:
            index = len(rows)
            label = f"{net_key}/{scen_key}"
            if on_frame is not None:
                on_frame(
                    0,
                    make_frame(
                        "task_start", task=index, label=label,
                        done=index, total=total,
                    ),
                )
            if profile_sink is not None:
                blobs: list[bytes] = []
                with capture_profile(blobs):
                    row = run_cell(case, scen_key, **kwargs)
                profile_sink.append((os.getpid(), blobs[0]))
            else:
                row = run_cell(case, scen_key, **kwargs)
            rows.append(row)
            if on_frame is not None:
                on_frame(
                    0,
                    make_frame(
                        "task_end", task=index, label=label,
                        done=len(rows), total=total, ok=row.solved,
                    ),
                )
    return rows


def _run_table2_parallel(
    networks: tuple[str, ...],
    scenarios: tuple[str, ...],
    workers: int,
    source_bw: float = DEFAULT_SOURCE_BW,
    demand: float = DEFAULT_DEMAND,
    rg_node_budget: int = 500_000,
    telemetry: Telemetry | None = None,
    compile_cache=None,
    pool=None,
    static_prune: str | None = None,
    on_frame=None,
    stream_interval_s: float | None = None,
    profile_sink: list | None = None,
) -> list[Table2Row]:
    """One Table-2 cell per pool task; results reassembled in cell order.

    ``pool`` lets a caller (the benchmark harness) keep one warm
    :class:`~repro.parallel.Supervisor` across repeated sweeps so the
    per-worker compile caches persist; by default a supervisor is
    created and torn down around
    this one sweep, so a worker death mid-sweep respawns and retries
    instead of aborting.  ``compile_cache`` only gates whether workers
    use *their own* process-global cache (it cannot cross the process
    boundary).
    """
    from ..parallel import CellTask, Supervisor, resolve_workers, run_cell_task

    workers = resolve_workers(workers, len(networks) * len(scenarios))
    dispatch = (
        telemetry.span("table2.fanout", workers=workers)
        if telemetry is not None
        else nullcontext()
    )
    with dispatch:
        # Tasks carry the dispatch span's context so every worker span
        # stitches under it when the snapshots come home.
        ctx = telemetry.current_context() if telemetry is not None else None
        tasks = [
            CellTask(
                network=net_key,
                scenario=scen_key,
                source_bw=source_bw,
                demand=demand,
                rg_node_budget=rg_node_budget,
                with_metrics=telemetry is not None,
                use_cache=compile_cache is not None,
                static_prune=static_prune,
                trace=ctx,
                profile=profile_sink is not None,
            )
            for net_key in networks
            for scen_key in scenarios
        ]
        if pool is not None:
            results = pool.map(
                run_cell_task, tasks,
                on_frame=on_frame, stream_interval_s=stream_interval_s,
            )
        else:
            with Supervisor(workers, telemetry=telemetry) as fresh:
                results = fresh.map(
                    run_cell_task, tasks,
                    on_frame=on_frame, stream_interval_s=stream_interval_s,
                )
    # Stitch worker spans and merge metrics in task order (deterministic
    # regardless of completion interleaving), then hand rows back in the
    # serial walk's order.
    if telemetry is not None:
        for index, result in enumerate(results):
            telemetry.stitch_snapshot(result.metrics, worker=index % workers)
            result.metrics.merge_into(telemetry.metrics)
    if profile_sink is not None:
        for result in results:
            if result.profile:
                profile_sink.append((result.metrics.pid, result.profile))
    return [result.row for result in results]
