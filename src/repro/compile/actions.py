"""Ground leveled planning actions.

A :class:`GroundAction` is one fully instantiated ``place`` or ``cross``
action with a committed level choice for every leveled variable it
mentions (paper §3.1 "leveled actions").  Besides the logical precondition
/ add-effect sets (interned proposition ids), each action carries its
*replay program*: the optimistic-interval seeds, conditions, and effect
assignments needed to re-execute a plan tail inside a resource map
(paper §3.2.3, Fig. 8), compiled into closures on the action's first replay.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from enum import Enum
from operator import attrgetter

from ..expr import (
    Assign,
    Node,
    apply_assign_interval,
    compile_assign_interval,
    compile_condition_satisfiable,
    condition_satisfiable,
    substitute,
    variables,
)
from ..intervals import Interval, MapContradiction, ResourceMap

__all__ = [
    "EffectKind",
    "GroundAction",
    "ReplayFailure",
    "ReplayCounters",
    "replay_backend",
    "set_replay_backend",
    "use_replay_backend",
    "iface_prop_var",
    "node_res_var",
    "link_res_var",
    "link_site",
]

_EPS = 1e-9

_BACKENDS = ("compiled", "interpreted")
_backend = "compiled"


def replay_backend() -> str:
    """The active replay evaluation backend (``compiled`` | ``interpreted``)."""
    return _backend


def set_replay_backend(mode: str) -> str:
    """Select how replay and execution evaluate formulas; returns the
    previous mode.

    ``compiled`` (the default) uses each action's compiled closures (built
    on its first replay);
    ``interpreted`` walks the ASTs through :mod:`repro.expr.evaluator` —
    the reference semantics, kept selectable for differential testing and
    benchmarking.
    """
    global _backend
    if mode not in _BACKENDS:
        raise ValueError(f"unknown replay backend {mode!r}; choose from {_BACKENDS}")
    previous = _backend
    _backend = mode
    return previous


@contextmanager
def use_replay_backend(mode: str):
    """Context manager form of :func:`set_replay_backend`."""
    previous = set_replay_backend(mode)
    try:
        yield
    finally:
        set_replay_backend(previous)


@dataclass(slots=True)
class ReplayCounters:
    """Replay work accounting for one search (surfaced in PlannerStats).

    ``replays`` counts whole-tail replays (one per candidate RG node),
    ``actions_replayed`` counts individual action executions inside them,
    and ``conditions_checked`` counts condition satisfiability tests.
    """

    replays: int = 0
    actions_replayed: int = 0
    conditions_checked: int = 0


def iface_prop_var(prop: str, iface: str, node: str) -> str:
    """Ground variable for an interface property at a node."""
    return f"{prop}:{iface}@{node}"


def node_res_var(res: str, node: str) -> str:
    """Ground variable for a node resource."""
    return f"{res}@{node}"


def link_res_var(res: str, a: str, b: str) -> str:
    """Ground variable for a link resource (canonical endpoint order)."""
    return node_res_var(res, link_site(a, b))


def link_site(a: str, b: str) -> str:
    """The site name link resources are ground at: ``lo~hi`` endpoints."""
    lo, hi = (a, b) if a <= b else (b, a)
    return f"{lo}~{hi}"


class EffectKind(Enum):
    """How an effect assignment's result is written into a resource map."""

    PRODUCE = "produce"                      # plain interface property
    PRODUCE_DEGRADABLE = "produce_degradable"  # store the down-closure [0, hi]
    PRODUCE_UPGRADABLE = "produce_upgradable"  # store the up-closure [lo, inf)
    CONSUME = "consume"                      # ``-=`` on a consumable resource
    SET_RESOURCE = "set_resource"            # ``:=``/``+=`` on a resource


class ReplayFailure(Exception):
    """A plan tail failed to execute in the optimistic resource map."""

    def __init__(self, action: "GroundAction", reason: str):
        super().__init__(f"replay of {action.name} failed: {reason}")
        self.action = action
        self.reason = reason


@dataclass(slots=True)
class GroundAction:
    """One leveled, grounded planning action."""

    index: int
    name: str
    kind: str  # 'place' | 'cross'
    subject: str  # component name (place) or interface name (cross)
    node: str | None = None  # placement node
    src: str | None = None  # crossing source
    dst: str | None = None  # crossing destination
    # -- logical layer (interned proposition ids) --
    pre_props: frozenset[int] = frozenset()
    add_props: frozenset[int] = frozenset()
    primary_adds: tuple[int, ...] = ()
    # -- cost --
    cost_lb: float = 0.0
    cost_ast: Node | None = None
    # -- replay program --
    var_map: dict[str, str] = field(default_factory=dict)  # spec var -> ground var
    seeds: tuple[tuple[str, Interval], ...] = ()
    conditions: tuple[Node, ...] = ()
    effects: tuple[Assign, ...] = ()
    effect_targets: tuple[tuple[str, EffectKind], ...] = ()
    committed: dict[str, Interval] = field(default_factory=dict)  # spec var -> level interval
    # Replay program (see :meth:`_build_program`), built on first replay and
    # shared with clones: a one-slot cell holding ``None`` until then, so a
    # clone forked before the first replay sees the program built after it.
    # Most ground actions are never replayed, so grounding builds none.
    _program: list = field(
        default_factory=lambda: [None], init=False, repr=False, compare=False
    )

    def __str__(self) -> str:
        return self.name

    # -- pickling / cloning ---------------------------------------------------

    def __getstate__(self):
        """Pickle without the replay program (it is rebuilt on first replay).

        The replay program's closures close over ground-substituted ASTs
        and are not picklable; everything needed to rebuild them travels in
        the declarative fields, so a worker process can receive a compiled
        problem and replay it.
        """
        return {
            slot: getattr(self, slot) for slot in self.__slots__ if slot != "_program"
        }

    def __setstate__(self, state) -> None:
        for slot, value in state.items():
            object.__setattr__(self, slot, value)
        self._program = [None]

    def clone(self) -> "GroundAction":
        """A copy sharing the replay program and every container.

        Unlike ``copy.copy`` — which round-trips through
        :meth:`__getstate__` and drops the replay program — this passes
        every field to the constructor and then shares the program cell:
        whichever of the two replays first builds the program for both.
        The program depends only on ``var_map``, ``conditions``,
        ``effects`` and ``effect_targets``, which nothing changes after
        grounding.

        The copy also shares the ``var_map`` and ``committed`` dicts (as
        every action of one grounding template already shares its
        ``committed``), so a clone costs one object.  Fields may be
        reassigned on a copy — ``index`` when renumbering, ``committed``
        in :func:`repro.planner.postopt.replace_action` — but neither
        dict may be edited in place: replace it instead.
        """
        dup = GroundAction(*_init_fields(self))
        dup._program = self._program
        return dup

    def _build_program(self) -> tuple:
        """Build, store and return ``(cond_prog, effect_prog, var_items)``.

        Compiled closures are built over *ground*-substituted copies of
        the formulas, so replay can hand them the resource map's backing
        dict as the environment directly — no per-action spec-var env to
        assemble.  The original ASTs are kept alongside for failure
        messages (spec-var text) and the interpreted reference backend.
        expr.compile memoizes per distinct AST, so actions sharing a
        formula *and* a variable mapping share one closure.  Each part is
        zipped with its AST/target so the replay loop iterates one flat
        tuple instead of re-zipping per call.
        """
        sub = self.var_map
        cond_prog = tuple(
            (c, compile_condition_satisfiable(substitute(c, sub)))
            for c in self.conditions
        )
        effect_prog = tuple(
            (compile_assign_interval(substitute(a, sub)), gvar, ekind)
            for a, (gvar, ekind) in zip(self.effects, self.effect_targets)
        )
        # The interpreted backend still evaluates spec-named ASTs; only
        # variables some replay formula actually *reads* need to enter its
        # environment (``var_map`` also carries output-only mappings).
        read_vars: set[str] = set()
        for c in self.conditions:
            read_vars |= variables(c)
        for a in self.effects:
            read_vars |= variables(a.expr)
            if a.op != ":=":
                read_vars.add(a.target.name)
        var_items = tuple(
            (sv, gv) for sv, gv in self.var_map.items() if sv in read_vars
        )
        program = self._program[0] = (cond_prog, effect_prog, var_items)
        return program

    # -- replay ---------------------------------------------------------------

    def replay(self, rmap: ResourceMap, counters: ReplayCounters | None = None) -> None:
        """Execute this action inside ``rmap`` (mutating it).

        Raises :class:`ReplayFailure` when an optimistic-interval
        intersection empties, a condition becomes unsatisfiable, or a
        consumable resource is overdrawn in the worst case.
        """
        try:
            for var, iv in self.seeds:
                rmap.constrain(var, iv)
        except MapContradiction as exc:
            raise ReplayFailure(self, str(exc)) from None

        if counters is not None:
            counters.actions_replayed += 1
            counters.conditions_checked += len(self.conditions)

        # Simultaneous effect semantics: all right-hand sides read the
        # pre-state, then targets are written.
        cond_prog, effect_prog, var_items = self._program[0] or self._build_program()
        staged: list[tuple[str, EffectKind, Interval]]
        if _backend == "compiled":
            # Ground-substituted closures read the map's backing dict
            # directly; staging keeps every read ahead of the write-back.
            env = rmap._vars
            for cond, cond_fn in cond_prog:
                if not cond_fn(env):
                    raise ReplayFailure(self, f"condition {cond.unparse()} unsatisfiable")
            staged = [
                (gvar, ekind, effect_fn(env))
                for effect_fn, gvar, ekind in effect_prog
            ]
        else:
            env = {}
            rmap_get = rmap._vars.get
            for spec_var, ground_var in var_items:
                got = rmap_get(ground_var)
                if got is not None:
                    env[spec_var] = got
            for cond in self.conditions:
                if not condition_satisfiable(cond, env):
                    raise ReplayFailure(self, f"condition {cond.unparse()} unsatisfiable")
            staged = [
                (gvar, ekind, apply_assign_interval(assign, env))
                for assign, (gvar, ekind) in zip(self.effects, self.effect_targets)
            ]

        for gvar, ekind, iv in staged:
            # Each closure/consume branch rebuilds the interval only when a
            # bound actually changes; reusing ``iv`` is exact (Interval is
            # immutable) and skips the dominant allocation of the replay loop.
            if ekind is EffectKind.CONSUME:
                if iv.lo < -_EPS:
                    raise ReplayFailure(
                        self, f"worst-case overdraw of {gvar}: remaining {iv}"
                    )
                if iv.lo >= 0.0 and not iv.lo_open:
                    rmap.set(gvar, iv)
                else:
                    rmap.set(gvar, Interval(max(iv.lo, 0.0), iv.hi, False, iv.hi_open))
            elif ekind is EffectKind.PRODUCE_DEGRADABLE:
                if iv.lo == 0.0 and not iv.lo_open:
                    rmap.set(gvar, iv)
                else:
                    rmap.set(gvar, Interval(0.0, iv.hi, False, iv.hi_open))
            elif ekind is EffectKind.PRODUCE_UPGRADABLE:
                if iv.hi == math.inf:
                    rmap.set(gvar, iv)
                else:
                    rmap.set(gvar, Interval(iv.lo, math.inf, iv.lo_open, True))
            else:
                if iv.is_empty():
                    raise ReplayFailure(self, f"effect on {gvar} produced empty interval")
                rmap.set(gvar, iv)


# Every constructor field of a GroundAction, read as one tuple (clone()).
_init_fields = attrgetter(*(f.name for f in fields(GroundAction) if f.init))
