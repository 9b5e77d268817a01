"""Differential tests: compiled closures vs the interpreted reference.

The compiled engine (:mod:`repro.expr.compile`) exists purely for speed;
the interpreter stays the reference semantics.  Every observable — float
values, interval bounds *and* openness flags, EvalError messages — must
agree exactly, because the planner's replay backends are interchangeable
and plan equality across them is an acceptance criterion.
"""

import math

import pytest
from hypothesis import given, strategies as st

from repro.expr import (
    And,
    Assign,
    BinOp,
    Call,
    Compare,
    EvalError,
    Num,
    TableFunction,
    Var,
    apply_assign_float,
    apply_assign_interval,
    check_condition_float,
    clear_compile_cache,
    compile_assign_float,
    compile_assign_interval,
    compile_cache_size,
    compile_condition_certain,
    compile_condition_float,
    compile_condition_satisfiable,
    compile_float,
    compile_interval,
    condition_certain,
    condition_satisfiable,
    eval_float,
    eval_interval,
    register_function,
    unregister_function,
)
from repro.intervals import EMPTY, Interval

VARS = ["M.ibw", "T.ibw", "Node.cpu", "Link.lbw"]
CMP_OPS = [">=", "<=", ">", "<", "==", "!="]


@pytest.fixture(autouse=True, scope="module")
def _profile_fn():
    """A monotone table profile available to generated formulas."""
    register_function(TableFunction("profile1", [(0, 0), (50, 20), (100, 90)]))
    yield
    unregister_function("profile1")


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------


@st.composite
def exprs(draw, depth=0):
    kinds = ["num", "var"] if depth >= 3 else ["num", "var", "bin", "call", "table"]
    kind = draw(st.sampled_from(kinds))
    if kind == "num":
        return Num(draw(st.floats(min_value=-50, max_value=100, allow_nan=False)))
    if kind == "var":
        return Var(draw(st.sampled_from(VARS)))
    if kind == "bin":
        op = draw(st.sampled_from(["+", "-", "*", "/"]))
        return BinOp(op, draw(exprs(depth + 1)), draw(exprs(depth + 1)))
    if kind == "table":
        return Call("profile1", (draw(exprs(depth + 1)),))
    n = draw(st.integers(min_value=1, max_value=3))
    fn = draw(st.sampled_from(["min", "max"]))
    return Call(fn, tuple(draw(exprs(depth + 1)) for _ in range(n)))


@st.composite
def fused_rhs(draw):
    """Rhs shapes the compiler fuses into single-allocation assign closures."""
    shape = draw(st.sampled_from(["num", "var", "var*c", "c*var", "var/c"]))
    if shape == "num":
        return Num(draw(st.floats(min_value=-50, max_value=50, allow_nan=False)))
    v = Var(draw(st.sampled_from(VARS)))
    if shape == "var":
        return v
    c = Num(
        draw(
            st.floats(min_value=-20, max_value=20, allow_nan=False).filter(
                lambda x: x != 0
            )
        )
    )
    if shape == "var*c":
        return BinOp("*", v, c)
    if shape == "c*var":
        return BinOp("*", c, v)
    return BinOp("/", v, c)


@st.composite
def conditions(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    parts = tuple(
        Compare(draw(st.sampled_from(CMP_OPS)), draw(exprs(1)), draw(exprs(1)))
        for _ in range(n)
    )
    return parts[0] if n == 1 else And(parts)


@st.composite
def assigns(draw):
    target = Var(draw(st.sampled_from(VARS)))
    op = draw(st.sampled_from([":=", "+=", "-="]))
    expr = draw(st.one_of(exprs(), fused_rhs()))
    return Assign(target, op, expr)


@st.composite
def interval_values(draw):
    shape = draw(
        st.sampled_from(["closed", "flags", "point", "at_least", "empty", "empty"])
    )
    if shape == "empty":
        return EMPTY
    a = draw(st.floats(min_value=-100, max_value=100, allow_nan=False))
    if shape == "point":
        return Interval.point(a)
    if shape == "at_least":
        return Interval.at_least(a)
    b = draw(st.floats(min_value=-100, max_value=100, allow_nan=False))
    lo, hi = min(a, b), max(a, b)
    if shape == "closed":
        return Interval.closed(lo, hi)
    return Interval(lo, hi, draw(st.booleans()), draw(st.booleans()))


@st.composite
def ienvs(draw):
    # ~10% of variables stay unbound so lookup errors are compared too.
    return {
        v: draw(interval_values())
        for v in VARS
        if draw(st.integers(min_value=0, max_value=9)) > 0
    }


@st.composite
def fenvs(draw):
    return {
        v: draw(st.floats(min_value=-100, max_value=100, allow_nan=False))
        for v in VARS
        if draw(st.integers(min_value=0, max_value=9)) > 0
    }


# ---------------------------------------------------------------------------
# Exact-agreement helpers
# ---------------------------------------------------------------------------


def _outcome(fn):
    try:
        return ("ok", fn())
    except EvalError as exc:
        return ("err", str(exc))


def _assert_same_float(got, want):
    assert got[0] == want[0], (got, want)
    if got[0] == "ok":
        g, w = got[1], want[1]
        assert g == w or (math.isnan(g) and math.isnan(w)), (g, w)
    else:
        assert got[1] == want[1]


def _assert_same_interval(got, want):
    assert got[0] == want[0], (got, want)
    if got[0] == "err":
        assert got[1] == want[1]
        return
    g, w = got[1], want[1]
    assert (g.lo == w.lo or (math.isnan(g.lo) and math.isnan(w.lo))), (g, w)
    assert (g.hi == w.hi or (math.isnan(g.hi) and math.isnan(w.hi))), (g, w)
    assert g.lo_open == w.lo_open and g.hi_open == w.hi_open, (g, w)


# ---------------------------------------------------------------------------
# Property tests — compiled must agree with interpreted on everything
# ---------------------------------------------------------------------------


class TestCompiledAgreesWithInterpreted:
    @given(exprs(), fenvs())
    def test_float(self, expr, env):
        _assert_same_float(
            _outcome(lambda: compile_float(expr)(env)),
            _outcome(lambda: eval_float(expr, env)),
        )

    @given(exprs(), ienvs())
    def test_interval(self, expr, env):
        _assert_same_interval(
            _outcome(lambda: compile_interval(expr)(env)),
            _outcome(lambda: eval_interval(expr, env)),
        )

    @given(conditions(), fenvs())
    def test_condition_float(self, cond, env):
        _assert_same_float(
            _outcome(lambda: compile_condition_float(cond)(env)),
            _outcome(lambda: check_condition_float(cond, env)),
        )

    @given(conditions(), ienvs())
    def test_condition_satisfiable(self, cond, env):
        _assert_same_float(
            _outcome(lambda: compile_condition_satisfiable(cond)(env)),
            _outcome(lambda: condition_satisfiable(cond, env)),
        )

    @given(conditions(), ienvs())
    def test_condition_certain(self, cond, env):
        _assert_same_float(
            _outcome(lambda: compile_condition_certain(cond)(env)),
            _outcome(lambda: condition_certain(cond, env)),
        )

    @given(assigns(), fenvs())
    def test_assign_float(self, assign, env):
        _assert_same_float(
            _outcome(lambda: compile_assign_float(assign)(env)),
            _outcome(lambda: apply_assign_float(assign, env)),
        )

    @given(assigns(), ienvs())
    def test_assign_interval(self, assign, env):
        _assert_same_interval(
            _outcome(lambda: compile_assign_interval(assign)(env)),
            _outcome(lambda: apply_assign_interval(assign, env)),
        )

    @pytest.mark.parametrize("op", ["+=", "-="])
    def test_fused_scale_overflow_is_canonical_empty(self, op):
        # 2 / 2**-1023 overflows to [inf, inf], an empty interval: the fused
        # ``V / c`` closure must return EMPTY as iadd does, not a stray bound.
        assign = Assign(Var("M.ibw"), op, BinOp("/", Var("M.ibw"), Num(2.0**-1023)))
        env = {"M.ibw": Interval.point(2.0)}
        _assert_same_interval(
            _outcome(lambda: compile_assign_interval(assign)(env)),
            _outcome(lambda: apply_assign_interval(assign, env)),
        )
        assert compile_assign_interval(assign)(env) == EMPTY


# ---------------------------------------------------------------------------
# Comparison semantics at touching endpoints
# ---------------------------------------------------------------------------

# l = [0, 5] touching r = [5, 10] at 5, with every open/closed combination
# of the shared endpoint.  Columns: (l.hi_open, r.lo_open) -> expected.
_TOUCH_EXISTS = {
    # ∃ a ∈ l, b ∈ r: a op b — only a = b = 5 can witness >= / ==.
    ">=": {(False, False): True, (False, True): False,
           (True, False): False, (True, True): False},
    ">": {(False, False): False, (False, True): False,
          (True, False): False, (True, True): False},
    "<=": {(False, False): True, (False, True): True,
           (True, False): True, (True, True): True},
    "<": {(False, False): True, (False, True): True,
          (True, False): True, (True, True): True},
    "==": {(False, False): True, (False, True): False,
           (True, False): False, (True, True): False},
    "!=": {(False, False): True, (False, True): True,
           (True, False): True, (True, True): True},
}
_TOUCH_FORALL = {
    # ∀ a ∈ l, b ∈ r: a op b — a <= 5 <= b always, so only strictness at
    # the shared endpoint matters.
    ">=": {c: False for c in _TOUCH_EXISTS[">="]},
    ">": {c: False for c in _TOUCH_EXISTS[">"]},
    "<=": {c: True for c in _TOUCH_EXISTS["<="]},
    "<": {(False, False): False, (False, True): True,
          (True, False): True, (True, True): True},
    "==": {c: False for c in _TOUCH_EXISTS["=="]},
    "!=": {(False, False): False, (False, True): True,
           (True, False): True, (True, True): True},
}


class TestTouchingEndpoints:
    @pytest.mark.parametrize("op", CMP_OPS)
    @pytest.mark.parametrize("l_open", [False, True])
    @pytest.mark.parametrize("r_open", [False, True])
    def test_exists(self, op, l_open, r_open):
        cond = Compare(op, Var("L.x"), Var("R.x"))
        env = {
            "L.x": Interval(0.0, 5.0, False, l_open),
            "R.x": Interval(5.0, 10.0, r_open, False),
        }
        want = _TOUCH_EXISTS[op][(l_open, r_open)]
        assert condition_satisfiable(cond, env) is want
        assert compile_condition_satisfiable(cond)(env) is want

    @pytest.mark.parametrize("op", CMP_OPS)
    @pytest.mark.parametrize("l_open", [False, True])
    @pytest.mark.parametrize("r_open", [False, True])
    def test_forall(self, op, l_open, r_open):
        cond = Compare(op, Var("L.x"), Var("R.x"))
        env = {
            "L.x": Interval(0.0, 5.0, False, l_open),
            "R.x": Interval(5.0, 10.0, r_open, False),
        }
        want = _TOUCH_FORALL[op][(l_open, r_open)]
        assert condition_certain(cond, env) is want
        assert compile_condition_certain(cond)(env) is want


# ---------------------------------------------------------------------------
# Arity errors
# ---------------------------------------------------------------------------


class TestCallArity:
    @pytest.mark.parametrize("fn", ["min", "max"])
    def test_zero_arg_min_max(self, fn):
        node = Call(fn, ())
        for run in (
            lambda: eval_float(node, {}),
            lambda: compile_float(node)({}),
            lambda: eval_interval(node, {}),
            lambda: compile_interval(node)({}),
        ):
            with pytest.raises(EvalError, match=rf"{fn}\(\) needs at least one"):
                run()

    def test_wrong_arity_table_function(self):
        node = Call("profile1", (Num(1.0), Num(2.0)))
        for run in (
            lambda: eval_float(node, {}),
            lambda: compile_float(node)({}),
            lambda: eval_interval(node, {}),
            lambda: compile_interval(node)({}),
        ):
            with pytest.raises(EvalError, match="exactly one argument") as exc:
                run()
            assert node.unparse() in str(exc.value)


# ---------------------------------------------------------------------------
# Memoization
# ---------------------------------------------------------------------------


class TestMemoization:
    def test_same_ast_shares_closure(self):
        clear_compile_cache()
        node = BinOp("+", Var("T.ibw"), Num(1.0))
        assert compile_interval(node) is compile_interval(node)
        assert compile_cache_size() == 1

    def test_kinds_cached_separately(self):
        clear_compile_cache()
        cond = Compare(">=", Var("T.ibw"), Num(1.0))
        sat = compile_condition_satisfiable(cond)
        cert = compile_condition_certain(cond)
        assert sat is not cert
        env = {"T.ibw": Interval.closed(0.0, 5.0)}
        assert sat(env) is True and cert(env) is False
