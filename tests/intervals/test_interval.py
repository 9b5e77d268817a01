"""Unit tests for the Interval type."""

import math

import pytest

from repro.intervals import EMPTY, Interval


class TestConstructors:
    def test_closed(self):
        iv = Interval.closed(1.0, 2.0)
        assert not iv.lo_open and not iv.hi_open

    def test_half_open(self):
        iv = Interval.half_open(0.0, 90.0)
        assert not iv.lo_open and iv.hi_open

    def test_point(self):
        iv = Interval.point(5.0)
        assert iv.is_point()
        assert 5.0 in iv

    def test_at_least(self):
        iv = Interval.at_least(10.0)
        assert math.isinf(iv.hi)
        assert 10.0 in iv
        assert 1e12 in iv

    def test_nonnegative(self):
        iv = Interval.nonnegative()
        assert 0.0 in iv
        assert -0.001 not in iv

    def test_infinite_hi_normalized_open(self):
        iv = Interval(0.0, math.inf, False, False)
        assert iv.hi_open

    def test_infinite_lo_normalized_open(self):
        iv = Interval(-math.inf, 0.0, False, False)
        assert iv.lo_open


class TestEmptiness:
    def test_inverted_is_empty(self):
        assert Interval(2.0, 1.0).is_empty()

    def test_point_not_empty(self):
        assert not Interval.point(3.0).is_empty()

    def test_degenerate_open_is_empty(self):
        assert Interval(1.0, 1.0, True, False).is_empty()
        assert Interval(1.0, 1.0, False, True).is_empty()

    def test_canonical_empty(self):
        assert EMPTY.is_empty()

    def test_bool_protocol(self):
        assert Interval.closed(0, 1)
        assert not EMPTY


class TestContains:
    def test_closed_bounds_included(self):
        iv = Interval.closed(1.0, 2.0)
        assert 1.0 in iv and 2.0 in iv

    def test_open_hi_excluded(self):
        iv = Interval.half_open(90.0, 100.0)
        assert 90.0 in iv
        assert 100.0 not in iv
        assert 99.999 in iv

    def test_outside(self):
        iv = Interval.closed(1.0, 2.0)
        assert 0.999 not in iv and 2.001 not in iv


class TestIntersect:
    def test_overlap(self):
        a = Interval.closed(0.0, 10.0)
        b = Interval.closed(5.0, 15.0)
        assert a.intersect(b) == Interval.closed(5.0, 10.0)

    def test_disjoint_is_empty(self):
        assert Interval.closed(0, 1).intersect(Interval.closed(2, 3)).is_empty()

    def test_touching_closed_closed_is_point(self):
        ix = Interval.closed(0, 5).intersect(Interval.closed(5, 9))
        assert ix.is_point() and ix.lo == 5.0

    def test_touching_open_closed_is_empty(self):
        ix = Interval.half_open(0, 5).intersect(Interval.closed(5, 9))
        assert ix.is_empty()

    def test_openness_propagates_on_tie(self):
        ix = Interval.half_open(0, 5).intersect(Interval(0, 5, True, False))
        assert ix.lo_open and ix.hi_open

    def test_half_open_levels_disjoint(self):
        # Adjacent levels [90,100) and [100,inf) share no point.
        assert Interval.half_open(90, 100).intersect(Interval.at_least(100)).is_empty()


class TestHull:
    def test_hull_covers_both(self):
        h = Interval.closed(0, 1).hull(Interval.closed(5, 6))
        assert h == Interval.closed(0, 6)

    def test_hull_with_empty_is_identity(self):
        a = Interval.closed(2, 3)
        assert a.hull(EMPTY) == a
        assert EMPTY.hull(a) == a

    def test_hull_openness_closed_wins(self):
        h = Interval.half_open(0, 5).hull(Interval.closed(0, 5))
        assert not h.lo_open and not h.hi_open


class TestContainsInterval:
    def test_subset(self):
        assert Interval.closed(0, 10).contains_interval(Interval.closed(2, 3))

    def test_not_subset(self):
        assert not Interval.closed(0, 10).contains_interval(Interval.closed(5, 11))

    def test_open_boundary_subset(self):
        # [0,5) fits inside [0,5] but not vice versa.
        assert Interval.closed(0, 5).contains_interval(Interval.half_open(0, 5))
        assert not Interval.half_open(0, 5).contains_interval(Interval.closed(0, 5))

    def test_empty_subset_of_anything(self):
        assert Interval.closed(0, 1).contains_interval(EMPTY)


class TestExistentialChecks:
    """The paper-critical semantics: [90,100) satisfies >=90, [0,90) does not."""

    def test_exists_ge_attainable_bound(self):
        assert Interval.half_open(90, 100).exists_ge(90)

    def test_exists_ge_open_supremum_fails(self):
        assert not Interval.half_open(0, 90).exists_ge(90)

    def test_exists_ge_interior(self):
        assert Interval.half_open(0, 100).exists_ge(90)

    def test_exists_eq(self):
        assert Interval.half_open(90, 100).exists_eq(90)
        assert not Interval.half_open(90, 100).exists_eq(100)

    def test_empty_satisfies_nothing(self):
        assert not EMPTY.exists_ge(0)
        assert not EMPTY.exists_ge(-1e9)


class TestGreedyValue:
    def test_caps_at_hi(self):
        assert Interval.half_open(90, 100).greedy_value(cap=200) == 100.0

    def test_caps_at_external_cap(self):
        assert Interval.half_open(90, 100).greedy_value(cap=95) == 95.0

    def test_unbounded_requires_cap(self):
        with pytest.raises(ValueError):
            Interval.nonnegative().greedy_value()

    def test_never_below_lo(self):
        assert Interval.closed(50, 100).greedy_value(cap=10) == 50.0


class TestMisc:
    def test_width(self):
        assert Interval.closed(3, 8).width() == 5.0
        assert EMPTY.width() == 0.0

    def test_shifted(self):
        iv = Interval.half_open(1, 2).shifted(10)
        assert iv.lo == 11 and iv.hi == 12 and iv.hi_open

    def test_overlaps(self):
        assert Interval.closed(0, 5).overlaps(Interval.closed(5, 9))
        assert not Interval.half_open(0, 5).overlaps(Interval.closed(5, 9))

    def test_repr_readable(self):
        assert repr(Interval.half_open(90, 100)) == "[90, 100)"
