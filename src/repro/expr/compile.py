"""Compilation of specification ASTs into plain-Python closures.

The interpreted evaluators in :mod:`repro.expr.evaluator` re-dispatch on
node types for every evaluation.  That is fine for one-off checks, but
the planner's regression search replays plan tails millions of times, so
each formula is evaluated many orders of magnitude more often than it is
parsed.  This module compiles a formula *once* into a nest of specialized
closures — one Python function call per AST node, no ``isinstance``
dispatch, constants folded — and memoizes the result per distinct AST
(nodes are immutable and hashable, so structurally equal formulas share
one compiled closure).

The interpreted evaluators remain the reference semantics: the compiled
closures must agree exactly — values, interval bounds, *and* open/closed
endpoint flags — which the property suite asserts on randomized formulas.
Arity and operator errors are raised at compile time as
:class:`~repro.expr.errors.EvalError` (the interpreter raises the same
error lazily at evaluation time); table functions are looked up in the
default registry at *call* time so late registration behaves identically
in both engines.
"""

from __future__ import annotations

import math
from typing import Callable, Mapping

from ..intervals import EMPTY, Interval, iadd, idiv, imax, imin, imul, isub
from .ast_nodes import And, Assign, BinOp, Call, Compare, Node, Num, Var
from .errors import EvalError
from .evaluator import _FLOAT_CMP, _check_call_arity
from .functions import lookup_function

__all__ = [
    "FloatFn",
    "IntervalFn",
    "compile_float",
    "compile_interval",
    "compile_condition_float",
    "compile_condition_satisfiable",
    "compile_condition_certain",
    "compile_assign_float",
    "compile_assign_interval",
    "clear_compile_cache",
    "compile_cache_size",
]

FloatFn = Callable[[Mapping[str, float]], float]
IntervalFn = Callable[[Mapping[str, Interval]], Interval]
BoolFn = Callable[[Mapping], bool]

_isinf = math.isinf

# The hot interval closures below test operand emptiness with inlined
# attribute comparisons instead of calling Interval.is_empty(): the method
# is a quarter of all replay-loop calls, and the predicate is three loads.
# The expression mirrors is_empty() exactly:
#     lo > hi  or  (lo == hi and (lo_open or hi_open or isinf(lo)))


# ---------------------------------------------------------------------------
# Exact (float) semantics
# ---------------------------------------------------------------------------


def _build_float(node: Node) -> FloatFn:
    if isinstance(node, Num):
        v = node.value
        return lambda env: v
    if isinstance(node, Var):
        name = node.name
        text = node.unparse()

        def var_fn(env: Mapping[str, float]) -> float:
            try:
                return env[name]
            except KeyError:
                raise EvalError(f"unbound float variable {text!r}") from None

        return var_fn
    if isinstance(node, BinOp):
        lf = _build_float(node.left)
        rf = _build_float(node.right)
        op = node.op
        if op == "+":
            return lambda env: lf(env) + rf(env)
        if op == "-":
            return lambda env: lf(env) - rf(env)
        if op == "*":
            return lambda env: lf(env) * rf(env)
        if op == "/":
            text = node.unparse()

            def div_fn(env: Mapping[str, float]) -> float:
                # Operand order matches the interpreter (left, then right)
                # so error precedence is identical on malformed envs.
                left = lf(env)
                right = rf(env)
                if right == 0.0:
                    raise EvalError(f"division by zero in {text!r}")
                return left / right

            return div_fn
        raise EvalError(f"unknown operator {op!r}")
    if isinstance(node, Call):
        _check_call_arity(node)
        arg_fns = tuple(_build_float(a) for a in node.args)
        if node.fn in ("min", "max"):
            fold = min if node.fn == "min" else max
            if len(arg_fns) == 2:
                f0, f1 = arg_fns
                return lambda env: fold(f0(env), f1(env))
            return lambda env: fold(f(env) for f in arg_fns)
        fn_name = node.fn
        a0 = arg_fns[0]
        return lambda env: lookup_function(fn_name)(a0(env))
    raise EvalError(f"cannot evaluate {type(node).__name__} as an expression")


def _build_condition_float(node: Node) -> BoolFn:
    if isinstance(node, And):
        parts = tuple(_build_condition_float(p) for p in node.parts)
        return lambda env: all(p(env) for p in parts)
    if isinstance(node, Compare):
        try:
            cmp = _FLOAT_CMP[node.op]
        except KeyError:
            raise EvalError(f"unknown comparison {node.op!r}") from None
        lf = _build_float(node.left)
        rf = _build_float(node.right)
        return lambda env: cmp(lf(env), rf(env))
    raise EvalError(f"not a condition: {node.unparse()!r}")


# ---------------------------------------------------------------------------
# Interval semantics
# ---------------------------------------------------------------------------

_INTERVAL_BINOP = {"+": iadd, "-": isub, "*": imul, "/": idiv}


def _iv_shift(xf: IntervalFn, c: float) -> IntervalFn:
    """``x + c`` / ``c + x`` / ``x - c`` (pass ``-c``): shift both bounds."""

    def fn(env: Mapping[str, Interval]) -> Interval:
        a = xf(env)
        if a.lo > a.hi or (a.lo == a.hi and (a.lo_open or a.hi_open or _isinf(a.lo))):
            return EMPTY
        return Interval(a.lo + c, a.hi + c, a.lo_open, a.hi_open)

    return fn


def _iv_reflect(xf: IntervalFn, c: float) -> IntervalFn:
    """``c - x``: bounds negate and swap around ``c``."""

    def fn(env: Mapping[str, Interval]) -> Interval:
        a = xf(env)
        if a.lo > a.hi or (a.lo == a.hi and (a.lo_open or a.hi_open or _isinf(a.lo))):
            return EMPTY
        return Interval(c - a.hi, c - a.lo, a.hi_open, a.lo_open)

    return fn


def _iv_scale(
    xf: IntervalFn, c: float, fallback: Callable[[Interval], Interval]
) -> IntervalFn:
    """``x * c`` (or ``x / k`` via ``c = 1/k``) for finite nonzero ``c``.

    Non-empty operands cannot have mixed openness at equal bounds, but the
    *scaled* bounds can still tie with differing flags (rounding at the
    extremes of the float range); there the generic operation's closed-wins
    tie-breaking applies, so we fall back to stay bit-exact.
    """
    if c > 0:

        def fn(env: Mapping[str, Interval]) -> Interval:
            a = xf(env)
            if a.lo > a.hi or (
                a.lo == a.hi and (a.lo_open or a.hi_open or _isinf(a.lo))
            ):
                return EMPTY
            lo = a.lo * c
            hi = a.hi * c
            if lo == hi and a.lo_open != a.hi_open:
                return fallback(a)
            return Interval(lo, hi, a.lo_open, a.hi_open)

    else:

        def fn(env: Mapping[str, Interval]) -> Interval:
            a = xf(env)
            if a.lo > a.hi or (
                a.lo == a.hi and (a.lo_open or a.hi_open or _isinf(a.lo))
            ):
                return EMPTY
            lo = a.hi * c
            hi = a.lo * c
            if lo == hi and a.lo_open != a.hi_open:
                return fallback(a)
            return Interval(lo, hi, a.hi_open, a.lo_open)

    return fn


def _const_operand_fast(node: BinOp) -> IntervalFn | None:
    """Bit-exact fast path when one operand is a finite numeric literal.

    Spec formulas are dominated by var-op-constant shapes (``M.ibw*0.3``,
    ``T.ibw/10``, ``1 + Z.ibw/10``); shifting or scaling two bounds skips
    the four-way cross-product of :func:`imul`/:func:`idiv`.  Division
    multiplies by the reciprocal — exactly what ``idiv`` does internally —
    so results stay bit-identical to the interpreter.  Shapes with no
    exact two-bound form (``c / x``, multiplication by zero, a reciprocal
    overflowing the float range) return ``None`` and take the generic path.
    """
    op = node.op
    if isinstance(node.right, Num) and math.isfinite(node.right.value):
        c = node.right.value
        xf = _build_interval(node.left)
        if op == "+":
            return _iv_shift(xf, c)
        if op == "-":
            return _iv_shift(xf, -c)
        if c != 0.0:
            c_iv = Interval.point(c)
            if op == "*":
                return _iv_scale(xf, c, lambda a: imul(a, c_iv))
            if op == "/":
                inv = 1.0 / c
                if math.isfinite(inv):
                    return _iv_scale(xf, inv, lambda a: idiv(a, c_iv))
    elif isinstance(node.left, Num) and math.isfinite(node.left.value):
        c = node.left.value
        xf = _build_interval(node.right)
        if op == "+":
            return _iv_shift(xf, c)
        if op == "-":
            return _iv_reflect(xf, c)
        if op == "*" and c != 0.0:
            c_iv = Interval.point(c)
            return _iv_scale(xf, c, lambda a: imul(c_iv, a))
    return None


def _build_interval(node: Node) -> IntervalFn:
    if isinstance(node, Num):
        iv = Interval.point(node.value)
        return lambda env: iv
    if isinstance(node, Var):
        name = node.name
        text = node.unparse()

        def var_fn(env: Mapping[str, Interval]) -> Interval:
            try:
                return env[name]
            except KeyError:
                raise EvalError(f"unbound interval variable {text!r}") from None

        return var_fn
    if isinstance(node, BinOp):
        try:
            op_fn = _INTERVAL_BINOP[node.op]
        except KeyError:
            raise EvalError(f"unknown operator {node.op!r}") from None
        fast = _const_operand_fast(node)
        if fast is not None:
            return fast
        lf = _build_interval(node.left)
        rf = _build_interval(node.right)
        if node.op == "+":

            def add_fn(env: Mapping[str, Interval]) -> Interval:
                a = lf(env)
                b = rf(env)
                if (
                    a.lo > a.hi
                    or b.lo > b.hi
                    or (a.lo == a.hi and (a.lo_open or a.hi_open or _isinf(a.lo)))
                    or (b.lo == b.hi and (b.lo_open or b.hi_open or _isinf(b.lo)))
                ):
                    return EMPTY
                return Interval(
                    a.lo + b.lo, a.hi + b.hi,
                    a.lo_open or b.lo_open, a.hi_open or b.hi_open,
                )

            return add_fn
        if node.op == "-":

            def sub_fn(env: Mapping[str, Interval]) -> Interval:
                a = lf(env)
                b = rf(env)
                if (
                    a.lo > a.hi
                    or b.lo > b.hi
                    or (a.lo == a.hi and (a.lo_open or a.hi_open or _isinf(a.lo)))
                    or (b.lo == b.hi and (b.lo_open or b.hi_open or _isinf(b.lo)))
                ):
                    return EMPTY
                # isub(a, b) = iadd(a, ineg(b)) with the negation folded
                # into the bound arithmetic (x + (-y) ≡ x - y in IEEE).
                return Interval(
                    a.lo - b.hi, a.hi - b.lo,
                    a.lo_open or b.hi_open, a.hi_open or b.lo_open,
                )

            return sub_fn
        if node.op == "/":

            def div_fn(env: Mapping[str, Interval]) -> Interval:
                try:
                    return op_fn(lf(env), rf(env))
                except ZeroDivisionError as exc:
                    raise EvalError(str(exc)) from None

            return div_fn
        return lambda env: op_fn(lf(env), rf(env))
    if isinstance(node, Call):
        _check_call_arity(node)
        arg_fns = tuple(_build_interval(a) for a in node.args)
        if node.fn in ("min", "max"):
            fold = imin if node.fn == "min" else imax
            if len(arg_fns) == 2:
                f0, f1 = arg_fns
                if node.fn == "min":
                    # imin inlined verbatim (hot in stream-cap formulas).

                    def min_fn(env: Mapping[str, Interval]) -> Interval:
                        a = f0(env)
                        b = f1(env)
                        if (
                            a.lo > a.hi
                            or b.lo > b.hi
                            or (a.lo == a.hi and (a.lo_open or a.hi_open or _isinf(a.lo)))
                            or (b.lo == b.hi and (b.lo_open or b.hi_open or _isinf(b.lo)))
                        ):
                            return EMPTY
                        if a.lo < b.lo:
                            lo, lo_open = a.lo, a.lo_open
                        elif b.lo < a.lo:
                            lo, lo_open = b.lo, b.lo_open
                        else:
                            lo, lo_open = a.lo, a.lo_open and b.lo_open
                        if a.hi < b.hi:
                            hi, hi_open = a.hi, a.hi_open
                        elif b.hi < a.hi:
                            hi, hi_open = b.hi, b.hi_open
                        else:
                            hi, hi_open = a.hi, a.hi_open or b.hi_open
                        # One operand often dominates (e.g. min(T.ibw, cap)
                        # with ibw below cap): returning it skips the
                        # allocation.  Intervals are immutable, so reuse is
                        # indistinguishable from a fresh equal instance.
                        if (
                            lo == a.lo
                            and hi == a.hi
                            and lo_open == a.lo_open
                            and hi_open == a.hi_open
                        ):
                            return a
                        if (
                            lo == b.lo
                            and hi == b.hi
                            and lo_open == b.lo_open
                            and hi_open == b.hi_open
                        ):
                            return b
                        return Interval(lo, hi, lo_open, hi_open)

                    return min_fn

                def max_fn(env: Mapping[str, Interval]) -> Interval:
                    a = f0(env)
                    b = f1(env)
                    if (
                        a.lo > a.hi
                        or b.lo > b.hi
                        or (a.lo == a.hi and (a.lo_open or a.hi_open or _isinf(a.lo)))
                        or (b.lo == b.hi and (b.lo_open or b.hi_open or _isinf(b.lo)))
                    ):
                        return EMPTY
                    if a.lo > b.lo:
                        lo, lo_open = a.lo, a.lo_open
                    elif b.lo > a.lo:
                        lo, lo_open = b.lo, b.lo_open
                    else:
                        lo, lo_open = a.lo, a.lo_open or b.lo_open
                    if a.hi > b.hi:
                        hi, hi_open = a.hi, a.hi_open
                    elif b.hi > a.hi:
                        hi, hi_open = b.hi, b.hi_open
                    else:
                        hi, hi_open = a.hi, a.hi_open and b.hi_open
                    if (
                        lo == a.lo
                        and hi == a.hi
                        and lo_open == a.lo_open
                        and hi_open == a.hi_open
                    ):
                        return a
                    if (
                        lo == b.lo
                        and hi == b.hi
                        and lo_open == b.lo_open
                        and hi_open == b.hi_open
                    ):
                        return b
                    return Interval(lo, hi, lo_open, hi_open)

                return max_fn

            def fold_fn(env: Mapping[str, Interval]) -> Interval:
                acc = arg_fns[0](env)
                for f in arg_fns[1:]:
                    acc = fold(acc, f(env))
                return acc

            return fold_fn
        fn_name = node.fn
        a0 = arg_fns[0]
        return lambda env: lookup_function(fn_name).image(a0(env))
    raise EvalError(f"cannot evaluate {type(node).__name__} as an expression")


# Per-operator comparison cores, specialized at compile time so the hot
# path skips the evaluator's sequential string dispatch (and the
# ``<=``/``<`` operand-swap recursion).  Empty-operand handling — the only
# part where existential (False) and universal (True) semantics differ
# structurally — stays in the wrapper closure below.  Each core mirrors the
# corresponding branch of ``_exists_cmp`` / ``_forall_cmp`` exactly.

_EXISTS_CORE: dict[str, Callable[[Interval, Interval], bool]] = {
    ">=": lambda l, r: l.hi > r.lo
    or (l.hi == r.lo and not l.hi_open and not r.lo_open),
    ">": lambda l, r: l.hi > r.lo,
    "<=": lambda l, r: r.hi > l.lo
    or (r.hi == l.lo and not r.hi_open and not l.lo_open),
    "<": lambda l, r: r.hi > l.lo,
    "==": lambda l, r: l.overlaps(r),
    "!=": lambda l, r: not (l.is_point() and r.is_point() and l.lo == r.lo),
}

_FORALL_CORE: dict[str, Callable[[Interval, Interval], bool]] = {
    ">=": lambda l, r: l.lo >= r.hi,
    ">": lambda l, r: l.lo > r.hi or (l.lo == r.hi and (l.lo_open or r.hi_open)),
    "<=": lambda l, r: r.lo >= l.hi,
    "<": lambda l, r: r.lo > l.hi or (r.lo == l.hi and (r.lo_open or l.hi_open)),
    "==": lambda l, r: l.is_point() and r.is_point() and l.lo == r.lo,
    "!=": lambda l, r: not l.overlaps(r),
}


def _build_condition_interval(node: Node, existential: bool) -> BoolFn:
    if isinstance(node, And):
        parts = tuple(_build_condition_interval(p, existential) for p in node.parts)
        return lambda env: all(p(env) for p in parts)
    if isinstance(node, Compare):
        cores = _EXISTS_CORE if existential else _FORALL_CORE
        try:
            core = cores[node.op]
        except KeyError:
            raise EvalError(f"unknown comparison {node.op!r}") from None
        on_empty = not existential
        lf = _build_interval(node.left)
        rf = _build_interval(node.right)

        def cmp_fn(env: Mapping[str, Interval]) -> bool:
            left = lf(env)
            right = rf(env)
            if (
                left.lo > left.hi
                or right.lo > right.hi
                or (
                    left.lo == left.hi
                    and (left.lo_open or left.hi_open or _isinf(left.lo))
                )
                or (
                    right.lo == right.hi
                    and (right.lo_open or right.hi_open or _isinf(right.lo))
                )
            ):
                return on_empty
            return core(left, right)

        return cmp_fn
    raise EvalError(f"not a condition: {node.unparse()!r}")


# ---------------------------------------------------------------------------
# Assignments
# ---------------------------------------------------------------------------


def _build_assign_float(node: Assign) -> FloatFn:
    rhs = _build_float(node.expr)
    if node.op == ":=":
        return rhs
    tgt = node.target.name
    text = node.target.unparse()
    add = node.op == "+="

    def fn(env: Mapping[str, float]) -> float:
        value = rhs(env)
        try:
            current = env[tgt]
        except KeyError:
            raise EvalError(f"unbound float variable {text!r}") from None
        return current + value if add else current - value

    return fn


def _fused_const_assign(c: float, tgt: str, ttext: str, add: bool) -> IntervalFn:
    """``tgt += c`` / ``tgt -= c`` fused into one closure (one allocation).

    Subtraction negates the constant up front: ``isub`` is defined as
    ``iadd`` of the negation, and IEEE guarantees ``x + (-c) == x - c``.
    """
    if not add:
        c = -c

    def fn(env: Mapping[str, Interval]) -> Interval:
        try:
            cur = env[tgt]
        except KeyError:
            raise EvalError(f"unbound interval variable {ttext!r}") from None
        if cur.lo > cur.hi or (
            cur.lo == cur.hi and (cur.lo_open or cur.hi_open or _isinf(cur.lo))
        ):
            return EMPTY
        return Interval(cur.lo + c, cur.hi + c, cur.lo_open, cur.hi_open)

    return fn


def _fused_scale_assign(
    vname: str,
    vtext: str,
    k: float,
    tgt: str,
    ttext: str,
    add: bool,
    fallback: Callable[[Interval], Interval],
) -> IntervalFn:
    """``tgt ±= V * k`` fused into one closure (one allocation).

    Covers the hottest replay effect shapes — ``Node.cpu -= T.ibw/10``
    (``k`` is the reciprocal, as in ``idiv``), ``Link.lbw -= T.ibw``
    (``k = 1``, exact identity under IEEE) — evaluating rhs before target
    like the interpreter, with the scale-tie fallback of :func:`_iv_scale`.
    """

    def fn(env: Mapping[str, Interval]) -> Interval:
        try:
            v = env[vname]
        except KeyError:
            raise EvalError(f"unbound interval variable {vtext!r}") from None
        try:
            cur = env[tgt]
        except KeyError:
            raise EvalError(f"unbound interval variable {ttext!r}") from None
        if (
            v.lo > v.hi
            or cur.lo > cur.hi
            or (v.lo == v.hi and (v.lo_open or v.hi_open or _isinf(v.lo)))
            or (cur.lo == cur.hi and (cur.lo_open or cur.hi_open or _isinf(cur.lo)))
        ):
            return EMPTY
        if k > 0:
            slo = v.lo * k
            shi = v.hi * k
            slo_o = v.lo_open
            shi_o = v.hi_open
        else:
            slo = v.hi * k
            shi = v.lo * k
            slo_o = v.hi_open
            shi_o = v.lo_open
        if slo == shi and slo_o != shi_o:
            s = fallback(v)
            slo = s.lo
            shi = s.hi
            slo_o = s.lo_open
            shi_o = s.hi_open
        if slo == shi and (slo_o or shi_o or _isinf(slo)):
            return EMPTY  # the scale overflowed to [inf, inf]: empty, as iadd sees it
        if add:
            return Interval(
                cur.lo + slo, cur.hi + shi,
                cur.lo_open or slo_o, cur.hi_open or shi_o,
            )
        return Interval(
            cur.lo - shi, cur.hi - slo,
            cur.lo_open or shi_o, cur.hi_open or slo_o,
        )

    return fn


def _fused_assign(node: Assign, tgt: str, ttext: str, add: bool) -> IntervalFn | None:
    """Fused closure for an augmented assignment with a simple rhs, or None."""
    e = node.expr
    if isinstance(e, Num):
        if math.isfinite(e.value):
            return _fused_const_assign(e.value, tgt, ttext, add)
        return None
    if isinstance(e, Var):
        # k = 1 never takes the tie fallback (a non-empty tie is closed-closed).
        return _fused_scale_assign(
            e.name, e.unparse(), 1.0, tgt, ttext, add, lambda a: a
        )
    if isinstance(e, BinOp):
        if (
            isinstance(e.left, Var)
            and isinstance(e.right, Num)
            and math.isfinite(e.right.value)
            and e.right.value != 0.0
        ):
            v, c = e.left, e.right.value
            c_iv = Interval.point(c)
            if e.op == "*":
                return _fused_scale_assign(
                    v.name, v.unparse(), c, tgt, ttext, add,
                    lambda a: imul(a, c_iv),
                )
            if e.op == "/":
                inv = 1.0 / c
                if math.isfinite(inv):
                    return _fused_scale_assign(
                        v.name, v.unparse(), inv, tgt, ttext, add,
                        lambda a: idiv(a, c_iv),
                    )
        elif (
            e.op == "*"
            and isinstance(e.left, Num)
            and isinstance(e.right, Var)
            and math.isfinite(e.left.value)
            and e.left.value != 0.0
        ):
            c, v = e.left.value, e.right
            c_iv = Interval.point(c)
            return _fused_scale_assign(
                v.name, v.unparse(), c, tgt, ttext, add,
                lambda a: imul(c_iv, a),
            )
    return None


def _build_assign_interval(node: Assign) -> IntervalFn:
    if node.op == ":=":
        return _build_interval(node.expr)
    tgt = node.target.name
    text = node.target.unparse()
    fused = _fused_assign(node, tgt, text, node.op == "+=")
    if fused is not None:
        return fused
    rhs = _build_interval(node.expr)
    if node.op == "+=":
        # iadd/isub inlined (see the BinOp closures for the IEEE argument);
        # consumable ``-=`` effects are the single hottest replay formula.

        def fn(env: Mapping[str, Interval]) -> Interval:
            value = rhs(env)
            try:
                current = env[tgt]
            except KeyError:
                raise EvalError(f"unbound interval variable {text!r}") from None
            if current.is_empty() or value.is_empty():
                return EMPTY
            return Interval(
                current.lo + value.lo, current.hi + value.hi,
                current.lo_open or value.lo_open, current.hi_open or value.hi_open,
            )

    else:

        def fn(env: Mapping[str, Interval]) -> Interval:
            value = rhs(env)
            try:
                current = env[tgt]
            except KeyError:
                raise EvalError(f"unbound interval variable {text!r}") from None
            if current.is_empty() or value.is_empty():
                return EMPTY
            return Interval(
                current.lo - value.hi, current.hi - value.lo,
                current.lo_open or value.hi_open, current.hi_open or value.lo_open,
            )

    return fn


# ---------------------------------------------------------------------------
# Memoized entry points
# ---------------------------------------------------------------------------

_CACHE: dict[tuple[str, Node], Callable] = {}


def _memo(kind: str, node: Node, build: Callable[[Node], Callable]) -> Callable:
    key = (kind, node)
    fn = _CACHE.get(key)
    if fn is None:
        fn = build(node)
        _CACHE[key] = fn
    return fn


def compile_float(node: Node) -> FloatFn:
    """Compile an arithmetic expression for the exact (float) semantics."""
    return _memo("float", node, _build_float)


def compile_interval(node: Node) -> IntervalFn:
    """Compile an arithmetic expression for the interval semantics."""
    return _memo("interval", node, _build_interval)


def compile_condition_float(node: Node) -> BoolFn:
    """Compile a condition for exact truth under concrete values."""
    return _memo("cond-float", node, _build_condition_float)


def compile_condition_satisfiable(node: Node) -> BoolFn:
    """Compile a condition for the planner's existential interval check."""
    return _memo(
        "cond-exists", node, lambda n: _build_condition_interval(n, existential=True)
    )


def compile_condition_certain(node: Node) -> BoolFn:
    """Compile a condition for the universal interval check."""
    return _memo(
        "cond-forall", node, lambda n: _build_condition_interval(n, existential=False)
    )


def compile_assign_float(node: Assign) -> FloatFn:
    """Compile an assignment: returns the new value for the target."""
    return _memo("assign-float", node, _build_assign_float)


def compile_assign_interval(node: Assign) -> IntervalFn:
    """Interval counterpart of :func:`compile_assign_float`."""
    return _memo("assign-interval", node, _build_assign_interval)


def clear_compile_cache() -> None:
    """Drop every memoized closure (test isolation helper)."""
    _CACHE.clear()


def compile_cache_size() -> int:
    return len(_CACHE)
