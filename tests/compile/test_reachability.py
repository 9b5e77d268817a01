"""Differential test of best-value reachability pruning.

``prune_unreachable_actions`` evaluates conditions and effects through
compiled spec-level closures.  The reference below is the same worklist
fixed point written against the interpreted evaluators
(``condition_satisfiable`` / ``eval_interval``); on every bundled domain and
on the Fig-10 network under scenarios A–E the two must keep and prune
exactly the same actions.
"""

import math
from collections import deque

import pytest

from repro.compile import compile_problem, diagnose
from repro.compile import problem as problem_module
from repro.compile.actions import EffectKind
from repro.domains import grid, media, variants, webservice
from repro.experiments import scenario
from repro.experiments.networks import large_case, small_case
from repro.expr import EvalError, condition_satisfiable, eval_interval
from repro.intervals import Interval
from repro.network import pair_network

_PRODUCE = (EffectKind.PRODUCE, EffectKind.PRODUCE_DEGRADABLE, EffectKind.PRODUCE_UPGRADABLE)


def _reference_outputs(action, best):
    env = {}
    for spec_var, gvar in action.var_map.items():
        committed = action.committed.get(spec_var)
        if committed is None or spec_var.startswith(("Node.", "Link.")):
            continue
        avail = best.get(gvar)
        if avail is None or committed.lo > avail + 1e-9:
            return None
        clipped = committed.intersect(Interval.closed(0.0, avail))
        if clipped.is_empty():
            return None
        env[spec_var] = clipped
    for spec_var, committed in action.committed.items():
        if spec_var.startswith(("Node.", "Link.")):
            env[spec_var] = committed
    try:
        if not all(condition_satisfiable(c, env) for c in action.conditions):
            return None
        return {
            gvar: eval_interval(assign.expr, env).hi
            for assign, (gvar, kind) in zip(action.effects, action.effect_targets)
            if kind in _PRODUCE
        }
    except EvalError:
        return None


def _reference_feasible(actions, stream_values) -> set[str]:
    """Names of the actions the interpreted worklist fixed point keeps."""
    best = dict(stream_values)
    dependents = {}
    for action in actions:
        for spec_var, gvar in action.var_map.items():
            if spec_var in action.committed and not spec_var.startswith(("Node.", "Link.")):
                dependents.setdefault(gvar, []).append(action)
    queue = deque(actions)
    queued = {id(a) for a in actions}
    feasible = set()
    # The same budget of 50 passes: additive properties (the grid domain's
    # latency) grow around network cycles without ever converging.
    for _ in range(len(actions) * 50):
        if not queue:
            break
        action = queue.popleft()
        queued.discard(id(action))
        outputs = _reference_outputs(action, best)
        if outputs is None:
            continue
        feasible.add(action.name)
        for gvar, hi in outputs.items():
            if not math.isnan(hi) and hi > best.get(gvar, -math.inf) + 1e-9:
                best[gvar] = hi
                for dep in dependents.get(gvar, ()):
                    if id(dep) not in queued:
                        queue.append(dep)
                        queued.add(id(dep))
    return feasible


def _compile_checked(monkeypatch, app, network, leveling):
    """compile_problem, asserting its pruning matches the reference."""
    real = problem_module.prune_unreachable_actions
    checked = []

    def differential(actions, stream_values):
        names = [a.name for a in actions]
        expected = _reference_feasible(actions, stream_values)
        kept, removed = real(actions, stream_values)
        assert [a.name for a in kept] == [n for n in names if n in expected]
        assert [a.name for a in removed] == [n for n in names if n not in expected]
        checked.append(len(actions))
        return kept, removed

    monkeypatch.setattr(problem_module, "prune_unreachable_actions", differential)
    problem = compile_problem(app, network, leveling)
    assert checked == [len(problem.actions) + len(problem.pruned_actions)]
    return problem


_DOMAINS = {
    "media-tiny-greedy": lambda: (
        media.build_app("n0", "n1"),
        pair_network(cpu=30.0, link_bw=70.0),
        media.proportional_leveling(()),
    ),
    "media-small-C": lambda: (
        media.build_app(small_case().server, small_case().client),
        small_case().network,
        scenario("C").leveling(),
    ),
    "grid": lambda: (
        grid.build_app("site0_worker", "site2_worker", with_memory=True),
        grid.build_network(sites=3, node_mem=10.0),
        grid.grid_leveling(),
    ),
    "grid-starved": lambda: (
        grid.build_app("site0_worker", "site1_worker", min_result_bw=99.0),
        grid.build_network(sites=2),
        grid.grid_leveling(),
    ),
    "webservice": lambda: (
        webservice.build_app("server", "client"),
        webservice.build_network(),
        webservice.ws_leveling(),
    ),
    **{
        f"variants-{bw:g}": (
            lambda bw=bw: (
                variants.build_app("src", "dst"),
                variants.build_network(link_bw=bw, node_cpu=100.0),
                variants.variants_leveling(),
            )
        )
        for bw in (150.0, 90.0, 50.0)
    },
}


class TestDifferential:
    @pytest.mark.parametrize("domain", sorted(_DOMAINS))
    def test_bundled_domains(self, monkeypatch, domain):
        _compile_checked(monkeypatch, *_DOMAINS[domain]())

    @pytest.mark.parametrize("key", "ABCDE")
    def test_fig10_scenarios(self, monkeypatch, key):
        case = large_case()
        problem = _compile_checked(
            monkeypatch,
            media.build_app(case.server, case.client),
            case.network,
            scenario(key).leveling(),
        )
        client_placements = [
            a for a in problem.actions if a.kind == "place" and a.subject == "Client"
        ]
        if key == "A":
            assert problem.pruned_actions
            assert client_placements == []
        else:
            assert client_placements


class TestDiagnoseUnchanged:
    def test_greedy_scenario_report(self):
        problem = compile_problem(
            media.build_app("n0", "n1"),
            pair_network(cpu=30.0, link_bw=70.0),
            media.proportional_leveling(()),
        )
        assert str(diagnose(problem)) == (
            "- goal placed(Client,n1): all 1 placements pruned:\n"
            "-   place(Client,n1): condition M.ibw >= 90 unsatisfiable (M.ibw∈[0, 70])"
        )
