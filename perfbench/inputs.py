"""The four workloads and the inputs each draws from its seed.

A workload's ``run(seed, n, pinned, measure)`` builds its inputs, checks
them against their pins, warms up, and then hands each op to ``measure``,
which times the call and gates its output.  Every run solves a fixed,
ordered list of inputs, never "as many as fit in the time", so two runs
with one seed do the same work.  The seed draws
the list from a pool pinned in ``expected.json``: ``record.py`` builds
each pool once from :data:`POOL_SEED` and records every member's outputs,
so the ops of any seed are checked exactly.

Each op starts from a declared cache state.  The flat workloads compile
from scratch (``Planner.solve`` uses no compile cache); hier-10k clears
the process-global compile cache before each op, untimed; repair-fleet
keeps one fresh cache per run, as a controller would.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from collections.abc import Callable, Iterator
from dataclasses import dataclass

from gate import check_digest, digest, mismatches
from repro.domains.media import DEFAULT_DEMAND, build_app
from repro.experiments import (
    large_case,
    scaling_network,
    scaling_network_domains,
    scenario,
)
from repro.hierarchy import solve as hierarchy_solve
from repro.network import network_to_dict
from repro.parallel import CompileCache, default_compile_cache
from repro.planner import Planner, PlannerConfig, PlanningError
from repro.simulate import campaign_timeline, controller, event_to_dict, run_controller

FIG10_PAIR = ("t0_0_s0_0", "t0_2_s2_5")
"""The paper's Fig. 10 server and client."""

POOL_SEED = 2004
"""Seeds the candidate inputs ``record.py`` pins; run seeds only draw from them."""


@dataclass
class Op:
    """One timed call into the program and how to check what it returned."""

    label: str
    call: Callable[[], object]
    observe: Callable[[object], dict]
    """The call's output as the gate compares it (run untimed, untraced)."""
    expected: dict


Measure = Callable[[Op], object]
"""Times ``op.call`` and gates its output; returns the output, or ``None``
when the call raised (the failure is counted)."""


def draw(seed: int, pool_size: int, n: int) -> list[int]:
    """``n`` pool indices for ``seed``, in whole shuffled passes over the
    pool, so no member repeats before every member has run."""
    rng = random.Random(seed)
    order: list[int] = []
    while len(order) < n:
        batch = list(range(pool_size))
        rng.shuffle(batch)
        order += batch
    return order[:n]


def _transit(node_id: str) -> str:
    return node_id.split("_s", 1)[0]  # "t0_2_s2_5" hangs off transit node "t0_2"


def _candidate_pairs(net, rng: random.Random) -> Iterator[tuple[str, str]]:
    """Seeded stub-to-stub pairs whose ends hang off different transit
    nodes, so every path crosses the WAN backbone (the paper's setting)."""
    stubs = sorted(n for n, node in net.nodes.items() if "stub" in node.labels)
    seen = set()
    while len(seen) < len(stubs) ** 2:
        pair = (rng.choice(stubs), rng.choice(stubs))
        if pair not in seen and _transit(pair[0]) != _transit(pair[1]):
            seen.add(pair)
            yield pair


def _pairs(pool: list[dict]) -> list[list[str]]:
    return [[entry["server"], entry["client"]] for entry in pool]


def _pin_pool(net, pool: list[dict]) -> dict:
    return {
        "digests": {"network": digest(network_to_dict(net)), "endpoints": digest(_pairs(pool))},
        "pool": pool,
    }


def _pinned_pool(name: str, net, pinned: dict) -> list[dict]:
    """The pinned endpoint pool, once the network and pool match their digests."""
    check_digest(f"{name} network", network_to_dict(net), pinned["digests"]["network"])
    check_digest(f"{name} endpoints", _pairs(pinned["pool"]), pinned["digests"]["endpoints"])
    return pinned["pool"]


def _expected(entry: dict) -> dict:
    return {k: v for k, v in entry.items() if k not in ("server", "client")}


def _plan_record(plan) -> dict:
    return {"cost_lb": plan.cost_lb, "exact_cost": plan.exact_cost, "plan_len": len(plan)}


class FlatWorkload:
    """``Planner.solve`` from scratch on one network, one endpoint pair per op."""

    def __init__(
        self,
        name: str,
        network: Callable,
        scenario_key: str,
        nominal_op_s: float,
        pool_size: int,
        fig10: bool = False,
    ):
        self.name = name
        self.network = network
        self.scenario_key = scenario_key
        self.nominal_op_s = nominal_op_s
        self.pool_size = pool_size
        self.fig10 = fig10

    def _solve(self, net, leveling, server: str, client: str):
        return Planner(PlannerConfig(leveling=leveling)).solve(build_app(server, client), net)

    def run(self, seed: int, n: int, pinned: dict, measure: Measure) -> None:
        net = self.network()
        pool = _pinned_pool(self.name, net, pinned)
        leveling = scenario(self.scenario_key).leveling()
        entries = [pinned["fig10"]] if self.fig10 else []
        entries += [pool[i] for i in draw(seed, len(pool), n - len(entries))]
        lan_vars = {f"lbw@{lk.a}~{lk.b}" for lk in net.links_with_label("LAN")}
        # One untimed solve, so state the process builds lazily on first
        # use is in place before the first timed op.
        self._solve(net, leveling, entries[0]["server"], entries[0]["client"])

        for entry in entries:
            app = build_app(entry["server"], entry["client"])
            planner = Planner(PlannerConfig(leveling=leveling))

            def call(planner=planner, app=app):
                return planner.solve(app, net)

            def observe(plan, entry=entry):
                got = _plan_record(plan)
                if "lan_reserved" in entry:  # the paper's Table 2, Large/C
                    report = plan.execute()
                    got["lan_reserved"] = report.max_consumed(lan_vars)
                    got["delivers_demand"] = (
                        report.value(f"ibw:M@{entry['client']}") >= DEFAULT_DEMAND
                    )
                return got

            measure(Op(f"{entry['server']}->{entry['client']}", call, observe, _expected(entry)))

    def record(self, log) -> dict:
        net = self.network()
        leveling = scenario(self.scenario_key).leveling()
        pool = []
        for server, client in _candidate_pairs(net, random.Random(POOL_SEED)):
            if len(pool) == self.pool_size:
                break
            if self.fig10 and (server, client) == FIG10_PAIR:
                continue
            try:
                plan = self._solve(net, leveling, server, client)
            except PlanningError as exc:
                log(f"{self.name}: skip {server}->{client}: {type(exc).__name__}")
                continue
            log(f"{self.name}: {server}->{client} {plan.stats.rg_nodes} RG nodes")
            pool.append({"server": server, "client": client, **_plan_record(plan)})
        pinned = _pin_pool(net, pool)
        if self.fig10:
            entry = {
                "server": FIG10_PAIR[0],
                "client": FIG10_PAIR[1],
                **_plan_record(self._solve(net, leveling, *FIG10_PAIR)),
                # Table 2, Large/C: the optimal plan reserves 65 LAN units
                # and the client receives at least its 90-unit demand.
                "lan_reserved": 65.0,
                "delivers_demand": True,
            }
            problems = []

            def check(op):
                problems.extend(mismatches(op.expected, op.observe(op.call())))

            self.run(0, 1, {**pinned, "fig10": entry}, check)
            if problems:
                raise RuntimeError(f"the Fig. 10 pair disagrees with Table 2: {problems}")
            pinned["fig10"] = entry
        return pinned


def _solve_hierarchical(app, net, leveling):
    # Looked up on the module at call time, so that in a traced op the
    # installed wrapper is the function called.
    return hierarchy_solve.solve_hierarchical(app, net, leveling=leveling)


def _hier_record(outcome) -> dict:
    return {"mode": outcome.mode, **_plan_record(outcome.plan)}


class HierWorkload:
    """``solve_hierarchical`` with its default configuration on a 9993-node
    transit-stub network, one cross-domain endpoint pair per op."""

    name = "hier-10k"
    nominal_op_s = 0.42
    pool_size = 60
    stub_domains = 333  # 3 + 30 * 333 = 9993 nodes

    def network(self):
        return scaling_network_domains(self.stub_domains)[0]

    def run(self, seed: int, n: int, pinned: dict, measure: Measure) -> None:
        net = self.network()
        pool = _pinned_pool(self.name, net, pinned)
        leveling = scenario("C").leveling()
        entries = [pool[i] for i in draw(seed, len(pool), n)]
        cache = default_compile_cache()
        _solve_hierarchical(build_app(entries[0]["server"], entries[0]["client"]), net, leveling)
        for entry in entries:
            app = build_app(entry["server"], entry["client"])
            cache.clear()

            def call(app=app):
                return _solve_hierarchical(app, net, leveling)

            measure(Op(f"{entry['server']}->{entry['client']}", call, _hier_record, _expected(entry)))

    def record(self, log) -> dict:
        net = self.network()
        leveling = scenario("C").leveling()
        pool = []
        for server, client in _candidate_pairs(net, random.Random(POOL_SEED)):
            if len(pool) == self.pool_size:
                break
            default_compile_cache().clear()
            outcome = _solve_hierarchical(build_app(server, client), net, leveling)
            if outcome.mode != "hierarchical":
                log(f"{self.name}: skip {server}->{client}: mode {outcome.mode}")
                continue
            log(f"{self.name}: {server}->{client} {len(outcome.plan)} actions")
            pool.append({"server": server, "client": client, **_hier_record(outcome)})
        return _pin_pool(net, pool)


def _repair_record(outcome) -> dict:
    return {"outcome": outcome.outcome, "total_cost": outcome.total_cost}


class RepairWorkload:
    """A fleet of Fig-10 media apps repaired after each event of a seeded
    fault timeline; one op is one member's repair after one event.

    The fleet runs through ``run_controller`` itself (inline, delta
    replanning on, a fresh compile cache per run); the benchmark only
    intercepts the controller's ``repair_member`` calls to time them.
    """

    name = "repair-fleet"
    nominal_op_s = 0.3
    pool_size = 10
    # Repair time depends on the kind of event, so a run covers many
    # events, with few members each, to see the same mix of kinds.
    fleet = 2
    max_events = 40

    def network(self):
        return large_case().network

    def timeline(self, net, timeline_seed: int) -> list:
        return campaign_timeline(net, {"faults": {}}, seed=timeline_seed, events=self.max_events)

    def _control(self, net, events: list, on_deploy, on_repair) -> None:
        """Run the controller over ``events``.  Its first ``fleet`` repairs
        are the initial deploys, handed to ``on_deploy(outcome)`` (set-up,
        not ops: a controller repairs a running fleet); every later repair
        is handed to ``on_repair(label, call)``, which must return the
        outcome."""
        original = controller.repair_member
        calls = itertools.count()

        def repair_member(task, **kwargs):
            call = functools.partial(original, task, **kwargs)
            k = next(calls) - self.fleet
            if k < 0:
                outcome = call()
                on_deploy(outcome)
                return outcome
            outcome = on_repair(f"event {k // self.fleet} {task.app.name}", call)
            if outcome is None:
                raise RuntimeError(f"the repair of {task.app.name} failed; the controller stops")
            return outcome

        spec = {
            "fleet": self.fleet,
            "delta_replanning": True,
            "events": [event_to_dict(e) for e in events],
        }
        controller.repair_member = repair_member
        try:
            run_controller(
                build_app(*FIG10_PAIR), net, scenario("C").leveling(), spec,
                compile_cache=CompileCache(),
            )
        finally:
            controller.repair_member = original

    def run(self, seed: int, n: int, pinned: dict, measure: Measure) -> None:
        net = self.network()
        check_digest(f"{self.name} network", network_to_dict(net), pinned["digests"]["network"])
        entry = pinned["timelines"][seed % len(pinned["timelines"])]
        timeline = self.timeline(net, entry["seed"])
        check_digest(
            f"{self.name} timeline {entry['seed']}",
            [event_to_dict(e) for e in timeline],
            entry["digest"],
        )
        events = math.ceil(n / self.fleet)
        if events > len(timeline):
            raise ValueError(
                f"{n} repairs need {events} events; the pinned timelines hold {len(timeline)}"
            )
        initial = iter(entry["initial"])
        expected = iter(entry["repairs"])

        def on_deploy(outcome):
            problems = mismatches(next(initial), _repair_record(outcome))
            if problems:
                raise RuntimeError(f"initial deploy of {outcome.app}: {problems}")

        def on_repair(label, call):
            return measure(Op(label, call, _repair_record, next(expected)))

        self._control(net, timeline[:events], on_deploy, on_repair)

    def record(self, log) -> dict:
        net = self.network()
        timelines = []
        timeline_seed = 0
        while len(timelines) < self.pool_size:
            timeline = self.timeline(net, timeline_seed)
            initial, repairs, outages = [], [], []

            def on_deploy(outcome):
                initial.append(_repair_record(outcome))

            def on_repair(label, call):
                outcome = call()
                if outcome.failed:
                    outages.append(f"{label}: {outcome.failure}")
                repairs.append(_repair_record(outcome))
                return outcome

            self._control(net, timeline, on_deploy, on_repair)
            if outages:
                log(f"{self.name}: skip timeline {timeline_seed}: {outages[0]}")
            elif len(timeline) == self.max_events:
                log(f"{self.name}: timeline {timeline_seed}: {len(repairs)} repairs")
                timelines.append({
                    "seed": timeline_seed,
                    "digest": digest([event_to_dict(e) for e in timeline]),
                    "initial": initial,
                    "repairs": repairs,
                })
            timeline_seed += 1
        return {"digests": {"network": digest(network_to_dict(net))}, "timelines": timelines}


WORKLOADS = {
    w.name: w
    for w in (
        FlatWorkload(
            "flat-ground", lambda: large_case().network, "C",
            nominal_op_s=0.6, pool_size=48, fig10=True,
        ),
        FlatWorkload(
            "flat-search", lambda: scaling_network(3)[0], "B",
            nominal_op_s=0.23, pool_size=112,
        ),
        HierWorkload(),
        RepairWorkload(),
    )
}
