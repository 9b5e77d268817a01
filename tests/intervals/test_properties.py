"""Property-based tests for interval arithmetic soundness.

The central invariant is *enclosure soundness*: for every operation ``op``
and points ``x ∈ X``, ``y ∈ Y``, the concrete result ``op(x, y)`` lies in
the interval result ``OP(X, Y)``.  The planner's correctness rests on this
property — interval evaluation of specification formulas must enclose
every concrete execution.
"""

import math

from hypothesis import assume, given, strategies as st

from repro.intervals import Interval, iadd, idiv, imax, imin, imul, ineg, isub

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


@st.composite
def intervals(draw, min_value=-1e6, max_value=1e6):
    a = draw(st.floats(min_value=min_value, max_value=max_value, allow_nan=False))
    b = draw(st.floats(min_value=min_value, max_value=max_value, allow_nan=False))
    lo, hi = min(a, b), max(a, b)
    # Open bounds only on comfortably wide intervals so interior points exist.
    wide = hi - lo > 1e-3 * max(1.0, abs(lo), abs(hi))
    lo_open = draw(st.booleans()) and wide
    hi_open = draw(st.booleans()) and wide
    return Interval(lo, hi, lo_open, hi_open)


@st.composite
def points_in(draw, iv: Interval):
    if iv.is_point():
        return iv.lo
    lo = math.nextafter(iv.lo, math.inf) if iv.lo_open else iv.lo
    hi = math.nextafter(iv.hi, -math.inf) if iv.hi_open else iv.hi
    if lo > hi:
        return iv.lo if not iv.lo_open else lo
    x = draw(st.floats(min_value=lo, max_value=hi, allow_nan=False))
    return x


@st.composite
def interval_with_point(draw, min_value=-1e6, max_value=1e6):
    iv = draw(intervals(min_value, max_value))
    x = draw(points_in(iv))
    return iv, x


class TestEnclosureSoundness:
    @given(interval_with_point(), interval_with_point())
    def test_add(self, ax, by):
        a, x = ax
        b, y = by
        assert x + y in _widen(iadd(a, b))

    @given(interval_with_point(), interval_with_point())
    def test_sub(self, ax, by):
        a, x = ax
        b, y = by
        assert x - y in _widen(isub(a, b))

    @given(interval_with_point(min_value=-1e3, max_value=1e3),
           interval_with_point(min_value=-1e3, max_value=1e3))
    def test_mul(self, ax, by):
        a, x = ax
        b, y = by
        assert x * y in _widen(imul(a, b))

    @given(interval_with_point(), interval_with_point(min_value=0.5, max_value=1e3))
    def test_div(self, ax, by):
        a, x = ax
        b, y = by
        assert x / y in _widen(idiv(a, b))

    @given(interval_with_point(), interval_with_point())
    def test_min(self, ax, by):
        a, x = ax
        b, y = by
        assert min(x, y) in _widen(imin(a, b))

    @given(interval_with_point(), interval_with_point())
    def test_max(self, ax, by):
        a, x = ax
        b, y = by
        assert max(x, y) in _widen(imax(a, b))

    @given(interval_with_point())
    def test_neg(self, ax):
        a, x = ax
        assert -x in _widen(ineg(a))


def _widen(iv: Interval, eps: float = 1e-7) -> Interval:
    """Absorb float rounding at the endpoints for membership checks."""
    if iv.is_empty():
        return iv
    pad = eps * max(1.0, abs(iv.lo), abs(iv.hi))
    return Interval(iv.lo - pad, iv.hi + pad, False, False)


class TestSetAlgebra:
    @given(intervals(), intervals())
    def test_intersection_subset_of_operands(self, a, b):
        ix = a.intersect(b)
        assert a.contains_interval(ix)
        assert b.contains_interval(ix)

    @given(intervals(), intervals())
    def test_hull_superset_of_operands(self, a, b):
        h = a.hull(b)
        assert h.contains_interval(a)
        assert h.contains_interval(b)

    @given(intervals(), intervals())
    def test_intersect_commutative(self, a, b):
        x = a.intersect(b)
        y = b.intersect(a)
        assert x.is_empty() == y.is_empty()
        if not x.is_empty():
            assert x == y

    @given(interval_with_point(), intervals())
    def test_membership_intersection_consistent(self, ax, b):
        a, x = ax
        if x in b:
            assert x in a.intersect(b)

    @given(intervals())
    def test_self_intersection_identity(self, a):
        assume(not a.is_empty())
        assert a.intersect(a) == a


class TestExistentialConsistency:
    @given(interval_with_point(), finite)
    def test_witness_implies_exists(self, ax, c):
        iv, x = ax
        if x >= c:
            assert iv.exists_ge(c)

    @given(intervals(), finite)
    def test_forall_implies_exists(self, iv, c):
        assume(not iv.is_empty())
        if iv.lo >= c:  # every member is >= c
            assert iv.exists_ge(c)
        if iv.hi < c:  # no member is >= c
            assert not iv.exists_ge(c)
