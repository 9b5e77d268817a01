"""Grounding parity: every ground action field, pinned by digest.

Each case compiles one (network, scenario) instance and hashes, for every
kept and every reachability-pruned action, its identity (name, kind,
subject, location), its logical layer (pre/add/primary props as prop
strings), its cost, and its whole replay program (var map, seeds,
conditions, effects, effect targets, committed intervals), plus the
problem's pre-prune ``_ground_names``, its proposition table in id order
(so interning order is pinned too) and ``reachability_pruned``.

The digests were recorded from the grounder that built every action per
binding; any change to how grounding is organised must reproduce them
exactly.  The patched cases do the same for the delta compile: a Fig-10
base patched across one network event, digested with the base's shared
proposition table, so the patch path's emission order, its renumbering
and the order it interns fresh propositions are pinned too.  A digest mismatch means some action field changed — diff the
``_action_record`` output of the two trees to find which.
"""

import hashlib

import pytest

from repro.compile import compile_problem, patch_problem
from repro.domains.media import build_app
from repro.experiments import large_case, scaling_network, scenario
from repro.parallel import network_delta
from repro.simulate import LinkChange, LinkFailure, NodeChange, apply_event


def _iv(iv):
    return (repr(iv.lo), repr(iv.hi), iv.lo_open, iv.hi_open)


def _action_record(problem, action):
    prop = problem.prop_str
    return (
        action.index,
        action.name,
        action.kind,
        action.subject,
        action.node,
        action.src,
        action.dst,
        tuple(sorted(prop(p) for p in action.pre_props)),
        tuple(sorted(prop(p) for p in action.add_props)),
        tuple(prop(p) for p in action.primary_adds),
        repr(action.cost_lb),
        action.cost_ast.unparse() if action.cost_ast is not None else None,
        tuple(sorted(action.var_map.items())),
        tuple((var, _iv(iv)) for var, iv in action.seeds),
        tuple(c.unparse() for c in action.conditions),
        tuple(e.unparse() for e in action.effects),
        tuple((gvar, kind.value) for gvar, kind in action.effect_targets),
        tuple(sorted((var, _iv(iv)) for var, iv in action.committed.items())),
    )


def grounding_digest(problem) -> str:
    h = hashlib.sha256()
    for label, actions in (("kept", problem.actions), ("pruned", problem.pruned_actions)):
        h.update(f"{label}:{len(actions)}\n".encode())
        for action in actions:
            h.update(repr(_action_record(problem, action)).encode())
            h.update(b"\n")
    h.update(repr(problem._ground_names).encode())
    h.update(repr([str(p) for p in problem.props.props]).encode())
    h.update(f"\npruned={problem.reachability_pruned}".encode())
    return h.hexdigest()


def _fig10(key):
    case = large_case()
    return build_app(case.server, case.client), case.network, scenario(key).leveling()


def _scaling(key):
    net, server, client = scaling_network(3)
    return build_app(server, client), net, scenario(key).leveling()


CASES = {
    "fig10-A": (
        _fig10,
        "A",
        "8df17b9e912bacd3c274eff8f52f72f133a779dce93758a62f3b5852204980f4",
    ),
    "fig10-B": (
        _fig10,
        "B",
        "d4b15bcd95ae1d4602a62cc4a836e105fe51779671abfea28933e6bbd1715f13",
    ),
    "fig10-C": (
        _fig10,
        "C",
        "7f4fc71a9e6b19cb84f84d60608f6fbabf997aecfcd8831af7d3c5202b6e3d3d",
    ),
    "fig10-D": (
        _fig10,
        "D",
        "a9c97850c5864efb5dff04c476dd612541493b537d6f019e7ff21f2bd9865c0e",
    ),
    "fig10-E": (
        _fig10,
        "E",
        "b559cf1213b1276b0626c6cb0f2642c55ba99bf2c6342b404272d33338314f66",
    ),
    "scaling3-B": (
        _scaling,
        "B",
        "785cc28bcfb8d8038c609d5c1db1c6dcf3261e2ef34f4ee81e8e3816428576a3",
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_grounding_matches_pinned_digest(case):
    build, key, expected = CASES[case]
    problem = compile_problem(*build(key))
    assert grounding_digest(problem) == expected


# Mid-list elements of the 181-link, 93-node Fig-10 network: a failure
# that keeps it connected, a link capacity that forms a new capacity
# class, and a node CPU change.
EVENTS = {
    "link-failure": LinkFailure("t0_1_s1_1", "t0_1_s1_7"),
    "link-change": LinkChange("t0_1_s1_0", "t0_1_s1_7", "lbw", 95.0),
    "node-change": NodeChange("t0_1_s1_4", "cpu", 12.0),
}

# (case) -> (templates the patch evaluates, digest): a patch evaluates
# templates for the touched groups only.
PATCHED = {
    ("C", "link-failure"): (
        0,
        "666f1bd4acc2b4cc6fcbbcef34cdd1006154d78dae07d9d8535f74279528eeb4"
    ),
    ("C", "link-change"): (
        11,
        "f8f2ef9f657302583a1f0e4839ac4989eb8afe2884217df26e18e3ee89a3fe23"
    ),
    ("C", "node-change"): (
        4,
        "459ff384f4b7fc17b4b55d3a2694ae7823de68884305050f506bf0380b940d29"
    ),
    ("E", "link-failure"): (
        0,
        "c0cda0a5e5dba8bde6bdbbd93329a3065e2751dddc7356492784a79f98cb2d7a"
    ),
    ("E", "link-change"): (
        46,
        "437ad3349057deb7568773abeb3fb9ced5626e36c9935d938d272388f8d48eb6"
    ),
    ("E", "node-change"): (
        10,
        "36a402a9be264bf8b1d80cc1286d50404126fd89188b6c3a6bfec839f9facf8c"
    ),
}


@pytest.mark.parametrize("case", sorted(PATCHED), ids="/".join)
def test_patched_grounding_matches_pinned_digest(case):
    key, event = case
    app, network, leveling = _fig10(key)
    base = compile_problem(app, network, leveling)
    new_network = apply_event(network, EVENTS[event])
    delta = network_delta(network, new_network)
    patched = patch_problem(base.fork(), new_network, delta, None)
    assert patched is not None and patched.compile_source == "delta"
    templates, expected = PATCHED[case]
    assert patched.ground_templates == templates
    assert grounding_digest(patched) == expected
