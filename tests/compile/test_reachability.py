"""Differential test of best-value reachability pruning.

``prune_unreachable_actions`` evaluates conditions and effects through
compiled spec-level closures, once per (grounding template, input best
values).  The reference below is the same worklist fixed point written
against the interpreted evaluators (``condition_satisfiable`` /
``eval_interval``), evaluating every action on every pop; on every bundled
domain, on the Fig-10 network under scenarios A–E and on a delta-patched
problem the two must keep and prune exactly the same actions, after the
same number of worklist pops, and converge below the pass budget.
"""

import math
from collections import deque

import pytest

from repro.compile import compile_problem, diagnose, patch_problem
from repro.compile import problem as problem_module
from repro.compile import reachability
from repro.compile.actions import EffectKind
from repro.domains import grid, media, variants, webservice
from repro.experiments import scenario
from repro.experiments.networks import large_case, small_case
from repro.expr import EvalError, condition_satisfiable, eval_interval
from repro.intervals import Interval
from repro.network import pair_network
from repro.parallel import network_delta
from repro.simulate import LinkFailure, apply_event

_PRODUCE = (EffectKind.PRODUCE, EffectKind.PRODUCE_DEGRADABLE, EffectKind.PRODUCE_UPGRADABLE)
_RESOURCE = ("Node.", "Link.")


def _stream_inputs(action):
    """(spec var, ground var) of the action's stream inputs, in order."""
    return [
        (spec_var, gvar)
        for spec_var, gvar in action.var_map.items()
        if spec_var in action.committed and not spec_var.startswith(_RESOURCE)
    ]


def _reference_outputs(action, best):
    env = {}
    for spec_var, gvar in _stream_inputs(action):
        committed = action.committed[spec_var]
        avail = best.get(gvar)
        if avail is None or committed.lo > avail + 1e-9:
            return None
        clipped = committed.intersect(Interval.closed(0.0, avail))
        if clipped.is_empty():
            return None
        env[spec_var] = clipped
    for spec_var, committed in action.committed.items():
        if spec_var.startswith(_RESOURCE):
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


def _reference_feasible(actions, stream_values) -> tuple[set[str], int]:
    """Names of the actions the interpreted worklist fixed point keeps,
    and the number of worklist pops it took to converge."""
    best = dict(stream_values)
    dependents = {}
    for action in actions:
        for _spec_var, gvar in _stream_inputs(action):
            dependents.setdefault(gvar, []).append(action)
    queue = deque(actions)
    queued = {id(a) for a in actions}
    feasible = set()
    increases = {}
    pops = 0
    while queue:
        pops += 1
        action = queue.popleft()
        queued.discard(id(action))
        outputs = _reference_outputs(action, best)
        if outputs is None:
            continue
        feasible.add(action.name)
        for gvar, hi in outputs.items():
            if not math.isnan(hi) and hi > best.get(gvar, -math.inf) + 1e-9:
                # Widening: additive properties (the grid domain's latency)
                # grow around network cycles without ever converging.
                increases[gvar] = increases.get(gvar, 0) + 1
                best[gvar] = math.inf if increases[gvar] > 8 else hi
                for dep in dependents.get(gvar, ()):
                    if id(dep) not in queued:
                        queue.append(dep)
                        queued.add(id(dep))
    return feasible, pops


def _assert_templates_shared(actions):
    """Actions sharing one ``committed`` dict (one grounding template)
    share everything reachability memoizes on: conditions, effects,
    effect kinds and the order of their stream-input spec variables."""
    seen = {}
    for action in actions:
        signature = (
            action.conditions,
            action.effects,
            tuple(kind for _gvar, kind in action.effect_targets),
            tuple(spec_var for spec_var, _gvar in _stream_inputs(action)),
        )
        first = seen.setdefault(id(action.committed), signature)
        assert signature == first, action.name


class _CountingDeque(deque):
    pops = 0

    def popleft(self):
        _CountingDeque.pops += 1
        return super().popleft()


def _checked_prune(monkeypatch, checked):
    """A prune_unreachable_actions that asserts it matches the reference."""
    real = reachability.prune_unreachable_actions
    monkeypatch.setattr(reachability, "deque", _CountingDeque)

    def differential(actions, stream_values):
        names = [a.name for a in actions]
        _assert_templates_shared(actions)
        expected, reference_pops = _reference_feasible(actions, stream_values)
        assert reference_pops < len(actions) * reachability._MAX_PASSES
        _CountingDeque.pops = 0
        kept, removed = real(actions, stream_values)
        assert _CountingDeque.pops == reference_pops
        assert [a.name for a in kept] == [n for n in names if n in expected]
        assert [a.name for a in removed] == [n for n in names if n not in expected]
        assert [a.index for a in kept] == list(range(len(kept)))
        checked.append(len(actions))
        return kept, removed

    return differential


def _compile_checked(monkeypatch, app, network, leveling):
    """compile_problem, asserting its pruning matches the reference."""
    checked = []
    monkeypatch.setattr(
        problem_module, "prune_unreachable_actions", _checked_prune(monkeypatch, checked)
    )
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


    def test_patched_problem(self, monkeypatch):
        """A patch mixes base templates with freshly grounded ones."""
        case = large_case()
        app = media.build_app(case.server, case.client)
        leveling = scenario("C").leveling()
        base = compile_problem(app, case.network, leveling)
        links = sorted(case.network.links)
        new_net = apply_event(case.network, LinkFailure(*links[len(links) // 2]))
        checked = []
        monkeypatch.setattr(
            problem_module, "prune_unreachable_actions", _checked_prune(monkeypatch, checked)
        )
        patched = patch_problem(base.fork(), new_net, network_delta(case.network, new_net), None)
        assert patched is not None and patched.compile_source == "delta"
        assert checked == [len(patched.actions) + len(patched.pruned_actions)]


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

    def test_fig10_greedy_report(self):
        case = large_case()
        problem = compile_problem(
            media.build_app(case.server, case.client), case.network, scenario("A").leveling()
        )
        assert str(diagnose(problem)) == (
            "- goal placed(Client,t0_2_s2_5): all 1 placements pruned:\n"
            "-   place(Client,t0_2_s2_5): condition M.ibw >= 90 unsatisfiable (M.ibw∈[0, 70])"
        )
