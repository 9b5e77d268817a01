"""Invariant resource envelopes via interval abstract interpretation.

This module computes, for every ground variable of a compiled problem, an
*invariant envelope*: an interval guaranteed to contain the variable's
value in **every state reachable by exact execution** from the initial
state (any executable action sequence, in any order — a superset of the
states a valid plan can pass through).  The fixpoint mirrors the exact
executor's semantics (:mod:`repro.planner.executor`) action by action:

* input streams are clipped to the committed level cap
  (``u = min(raw, committed.hi)``) and must reach the committed floor
  within the executor's ``1e-6`` fuzz;
* resource spec variables (``Node.*`` / ``Link.*``) read the raw envelope;
* effects are simultaneous (right-hand sides read the pre-state) but
  written sequentially, exactly as the executor stages them;
* ``CONSUME`` clamps the remainder to zero and *fails* on overdraw, so a
  guaranteed overdraw refutes the action.

Envelopes deliberately over-approximate *concrete execution*, not the
RG's optimistic replay: replay seeds absent input streams with full
committed intervals as stand-ins for the unexplored plan prefix, which
would wash the analysis out to ⊤.  Soundness of downstream dead-action
pruning rests on the planner's validated-plan invariant — every returned
plan executes exactly — so an action refuted under the envelopes can
never appear in a returned plan (see docs/ANALYSIS.md).

The fixpoint runs on best-value reachability's template machinery
(:mod:`repro.compile.reachability`): one binding of each action to its
template's state and read variables, and one worklist driver.  Only the
lattice is this module's: hull joins, with zero-threshold widening.

Termination: hull joins only grow envelopes; after :data:`_WIDEN_AFTER`
joins a variable's still-moving bound is widened to infinity, so the
worklist converges and the driver's one safety budget never trips.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..compile import (
    CompiledProblem,
    EffectKind,
    GroundAction,
    GroundingTemplate,
    iface_prop_var,
)
from ..compile.actions import is_resource_var
from ..compile.reachability import _WIDEN_AFTER, bind_templates, run_worklist
from ..expr import EvalError, condition_satisfiable, eval_interval
from ..intervals import Interval, iadd, imax, imin, isub
from ..planner.executor import _EPS

__all__ = [
    "AbstractStep",
    "EnvelopeResult",
    "Refutation",
    "abstract_step",
    "compute_envelopes",
    "initial_envelopes",
]


@dataclass(frozen=True)
class Refutation:
    """Why an action can never fire under the computed envelopes.

    ``kind`` is one of:

    ``missing-input``
        An input stream variable is never produced (bottom).
    ``level-clip``
        The committed level floor exceeds everything attainable after
        clipping the envelope at the level cap.
    ``condition``
        A condition is unsatisfiable over the abstract input environment.
    ``overdraw``
        A ``CONSUME`` effect overdraws its resource in every reachable
        state.
    ``eval-error``
        Formula evaluation fails deterministically (the exact executor
        raises the analogous :class:`~repro.planner.errors.ExecutionError`).
    """

    kind: str
    detail: str
    spec_var: str | None = None
    gvar: str | None = None
    committed: Interval | None = None
    envelope: Interval | None = None
    rhs: Interval | None = None
    condition: str | None = None
    env: tuple[tuple[str, Interval], ...] = ()


@dataclass(frozen=True)
class AbstractStep:
    """Abstract one-step image of an action that may fire.

    ``env`` is the abstract input environment (spec var → clipped
    interval); ``writes`` are the post-state envelopes of every ground
    variable the action writes, in sorted variable order.
    """

    env: dict[str, Interval]
    writes: tuple[tuple[str, Interval], ...]


def abstract_step(
    action: GroundAction, envelopes: dict[str, Interval]
) -> AbstractStep | Refutation:
    """Abstractly execute ``action`` over ``envelopes``.

    Returns an :class:`AbstractStep` when some concrete execution might
    fire the action, or a :class:`Refutation` proving that *every*
    concrete attempt fails.  The transfer function over-approximates the
    exact executor: whenever a concrete state within the envelopes lets
    the action execute, this function does not refute it.
    """
    # Ground variables are bound from the template's layouts, so stepping
    # an action never builds its ``var_map`` or ``effect_targets``.
    sites = action.sites
    env: dict[str, Interval] = {}
    for spec_var, prefix, site in sorted(action.template.var_layout):
        committed = action.committed.get(spec_var)
        if committed is None:
            continue  # output-only mapping: written by effects below
        gvar = prefix + sites[site]
        raw = envelopes.get(gvar)
        if is_resource_var(spec_var):
            if raw is None or raw.is_empty():
                return Refutation(
                    kind="missing-input",
                    detail=f"resource {gvar} has no value",
                    spec_var=spec_var,
                    gvar=gvar,
                    committed=committed,
                    envelope=raw,
                )
            env[spec_var] = raw
            continue
        if raw is None or raw.is_empty():
            return Refutation(
                kind="missing-input",
                detail=f"input stream {gvar} is never produced",
                spec_var=spec_var,
                gvar=gvar,
                committed=committed,
                envelope=raw,
            )
        # Executor input rule: u = min(raw, committed.hi), feasible iff
        # u + EPS >= committed.lo for some attainable u.
        if math.isfinite(committed.hi):
            clipped = imin(raw, Interval.point(committed.hi))
        else:
            clipped = raw
        if not clipped.exists_ge(committed.lo - _EPS):
            return Refutation(
                kind="level-clip",
                detail=(
                    f"at most {clipped.hi:g} of {gvar} ever available but the "
                    f"committed level requires at least {committed.lo:g}"
                ),
                spec_var=spec_var,
                gvar=gvar,
                committed=committed,
                envelope=raw,
            )
        env[spec_var] = clipped

    snapshot = tuple(sorted(env.items()))
    for cond in action.conditions:
        try:
            satisfiable = condition_satisfiable(cond, env)
        except EvalError as exc:
            return Refutation(
                kind="eval-error",
                detail=f"condition {cond.unparse()}: {exc}",
                condition=cond.unparse(),
                env=snapshot,
            )
        if not satisfiable:
            return Refutation(
                kind="condition",
                detail=f"condition {cond.unparse()} unsatisfiable over envelopes",
                condition=cond.unparse(),
                env=snapshot,
            )

    staged: list[tuple[str, EffectKind, Interval, str]] = []
    for assign, (prefix, site, kind) in zip(action.effects, action.template.target_layout):
        gvar = prefix + sites[site]
        try:
            rhs = eval_interval(assign.expr, env)
        except EvalError as exc:
            return Refutation(
                kind="eval-error",
                detail=f"effect on {gvar}: {exc}",
                gvar=gvar,
                env=snapshot,
            )
        if rhs.is_empty():
            return Refutation(
                kind="eval-error",
                detail=f"effect on {gvar} has an empty image",
                gvar=gvar,
                env=snapshot,
            )
        staged.append((gvar, kind, rhs, assign.op))

    # Effects write sequentially (the executor's staged loop), so a later
    # write to the same variable sees the earlier write's post-state.
    local: dict[str, Interval] = {}
    for gvar, kind, rhs, op in staged:
        pre = local.get(gvar)
        if pre is None:
            got = envelopes.get(gvar)
            pre = got if got is not None else Interval.point(0.0)
        if kind is EffectKind.CONSUME:
            post = isub(pre, rhs)
            if not post.exists_ge(-_EPS):
                return Refutation(
                    kind="overdraw",
                    detail=f"consuming {gvar} always overdraws (remaining {post})",
                    gvar=gvar,
                    envelope=pre,
                    rhs=rhs,
                    env=snapshot,
                )
            local[gvar] = imax(post, Interval.point(0.0))
        elif kind is EffectKind.SET_RESOURCE:
            if op == ":=":
                local[gvar] = rhs
            elif op == "+=":
                local[gvar] = iadd(pre, rhs)
            else:
                local[gvar] = isub(pre, rhs)
        else:
            # PRODUCE / PRODUCE_DEGRADABLE / PRODUCE_UPGRADABLE all write
            # the exact value in concrete execution; the closures only
            # exist in the replay map.
            local[gvar] = rhs
    return AbstractStep(env=env, writes=tuple(sorted(local.items())))


@dataclass
class EnvelopeResult:
    """Outcome of the envelope fixpoint."""

    envelopes: dict[str, Interval]
    iterations: int
    widened: tuple[str, ...]
    """Ground variables whose envelope lost a bound to widening."""

    @property
    def bounded(self) -> int:
        """Variables with a finite (both-bounds) envelope — the count
        surfaced as the ``analysis.envelope.tightened`` gauge."""
        return sum(1 for iv in self.envelopes.values() if iv.is_bounded())


def initial_envelopes(problem: CompiledProblem) -> dict[str, Interval]:
    """The abstract initial state: exact points, concrete semantics.

    Unlike :meth:`CompiledProblem.initial_map`, pre-placed streams enter
    as their exact produced value (the executor's seeding), not their
    degradability closure.
    """
    env: dict[str, Interval] = {
        gvar: Interval.point(value)
        for gvar, value in sorted(problem.initial_values.items())
    }
    for iface, node, value, _deg, _upg, prop in problem._initial_streams:
        gvar = iface_prop_var(prop, iface, node)
        point = Interval.point(value)
        prev = env.get(gvar)
        env[gvar] = point if prev is None else prev.hull(point)
    return env


class _Template:
    """What the envelope step reads of one grounding template, plus its memo.

    Every ground action of a template shares the template's ``committed``
    dict, conditions, effects, effect kinds, assign ops and variable
    layout, so :func:`abstract_step` depends only on the template and on
    the envelopes of the action's read variables: its committed spec vars
    and its ``CONSUME``/``SET_RESOURCE`` targets.  ``reads`` holds their
    ``(prefix, site)`` layouts, bound per action to its sites.  ``memo``
    maps the codes of those envelopes (see :func:`_value_codes`), in
    ``reads`` order, to the step's writes as ``(prefix, site, post)``, or
    to ``None`` when the step is refuted.
    """

    __slots__ = ("reads", "targets", "memo")

    def __init__(self, template: GroundingTemplate):
        layout = {spec_var: (prefix, site) for spec_var, prefix, site in template.var_layout}
        self.targets = tuple((prefix, site) for prefix, site, _kind in template.target_layout)
        resources = [
            (assign.target.name, (prefix, site))
            for assign, (prefix, site, kind) in zip(template.effects, template.target_layout)
            if kind in (EffectKind.CONSUME, EffectKind.SET_RESOURCE)
        ]
        # Grounding binds a template's spec vars and targets through shared
        # (prefix, site) pairs over distinct sites (a place binds one node, a
        # cross src != dst and their link), so what holds of the layout holds
        # of every binding: a resource target is the variable its spec var is
        # bound to, and no two written spec vars share a variable.  The memo
        # is exact only then, since writes are kept by layout.
        assert all(layout.get(spec_var) == at for spec_var, at in resources)
        assert len(set(self.targets)) == len({a.target.name for a in template.effects})
        committed = [s for s in layout if s in template.committed]
        reads = dict.fromkeys(committed + [s for s, _at in resources])
        self.reads = tuple(layout[s] for s in reads)
        self.memo: dict[tuple, tuple[tuple[str, int, Interval], ...] | None] = {}

    def step(
        self,
        action: GroundAction,
        envelopes: dict[str, Interval],
        code_of: dict[str, int],
        reads: tuple[str, ...],
    ) -> tuple[tuple[str, int, Interval], ...] | None:
        """:func:`abstract_step`'s writes as ``(prefix, site, post)``; None
        if refuted.

        ``reads`` are ``action``'s read variables, ``code_of`` the codes of
        ``envelopes``.
        """
        key = tuple(map(code_of.get, reads))
        if key not in self.memo:
            step = abstract_step(action, envelopes)
            sites = action.sites
            at = {prefix + sites[site]: (prefix, site) for prefix, site in self.targets}
            self.memo[key] = (
                None
                if isinstance(step, Refutation)
                else tuple((*at[gvar], post) for gvar, post in step.writes)
            )
        return self.memo[key]


def _value_codes(envelopes: dict[str, Interval], codes: dict[Interval, int]) -> dict[str, int]:
    """Each variable's code, one small int per distinct envelope value
    (added to ``codes`` when new): equal codes mean equal intervals, and a
    tuple of codes hashes without calling back into :class:`Interval`."""
    return {gvar: codes.setdefault(iv, len(codes)) for gvar, iv in envelopes.items()}


class _Binding:
    """Each action's template (one per grounding template) and its read
    ground variables, in :attr:`_Template.reads` order, with the value
    codes the templates' step memos are keyed by.

    A binding made once per problem serves the envelope fixpoint and the
    dead-action pass: the second pass codes values through the same
    ``codes``, so it also reuses the fixpoint's memoized steps.
    """

    def __init__(self, actions: list[GroundAction]):
        self.templates, self.reads = bind_templates(actions, _Template)
        self.codes: dict[Interval, int] = {}


def compute_envelopes(problem: CompiledProblem, binding: _Binding | None = None) -> EnvelopeResult:
    """Run the worklist fixpoint to a sound invariant envelope per variable.

    Deterministic: the worklist starts in action-index order and
    dependents are enqueued in index order, so identical problems produce
    identical envelopes (byte-for-byte across processes).  Steps are
    memoized per (template, read envelopes), so interchangeable bindings
    are stepped once; each binding's writes are joined in sorted variable
    order, as :func:`abstract_step` lists them.  ``binding`` is
    ``_Binding(problem.actions)``, made here when not given.
    """
    envelopes = initial_envelopes(problem)
    actions = problem.actions
    if binding is None:
        binding = _Binding(actions)
    templates, reads_of, codes = binding.templates, binding.reads, binding.codes
    code_of = _value_codes(envelopes, codes)
    joins: dict[str, int] = {}
    widened: set[str] = set()

    def visit(idx: int) -> list[str] | tuple[()]:
        out = templates[idx].step(actions[idx], envelopes, code_of, reads_of[idx])
        if out is None:
            return ()
        sites = actions[idx].sites
        changed = []
        for gvar, post in sorted([(prefix + sites[site], post) for prefix, site, post in out]):
            old = envelopes.get(gvar)
            if old is not None and old.contains_interval(post):
                continue
            new = post if old is None else old.hull(post)
            count = joins.get(gvar, 0) + 1
            joins[gvar] = count
            if count > _WIDEN_AFTER:
                # Widen whichever bound is still moving: first to the zero
                # threshold (resources never go negative — CONSUME clamps),
                # then to infinity if it keeps moving.
                lo, lo_open = new.lo, new.lo_open
                hi, hi_open = new.hi, new.hi_open
                if old is None or new.lo < old.lo:
                    if new.lo >= 0.0 and (old is None or old.lo > 0.0):
                        lo, lo_open = 0.0, False
                    else:
                        lo, lo_open = -math.inf, True
                if old is None or new.hi > old.hi:
                    hi, hi_open = math.inf, True
                new = Interval(lo, hi, lo_open, hi_open)
                if old is not None and old.contains_interval(new):
                    continue
                if not new.is_bounded():  # zero-threshold widening stays finite
                    widened.add(gvar)
            envelopes[gvar] = new
            code_of[gvar] = codes.setdefault(new, len(codes))
            changed.append(gvar)
        return changed

    iterations, converged = run_worklist(reads_of, visit)
    if not converged:  # pragma: no cover - widening converges first
        # Sound fallback: give up all precision on written variables.
        top = Interval(-math.inf, math.inf)
        for action, template in zip(actions, templates):
            for prefix, site in template.targets:
                gvar = prefix + action.sites[site]
                envelopes[gvar] = top
                widened.add(gvar)

    return EnvelopeResult(
        envelopes=envelopes,
        iterations=iterations,
        widened=tuple(sorted(widened)),
    )
