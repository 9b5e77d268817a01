"""Unit tests for ResourceMap (optimistic map propagation)."""

import pytest

from repro.intervals import Interval, MapContradiction, ResourceMap


class TestBasics:
    def test_set_get(self):
        m = ResourceMap()
        m.set("cpu@n0", Interval.point(30))
        assert m["cpu@n0"] == Interval.point(30)
        assert "cpu@n0" in m and "cpu@n1" not in m

    def test_set_empty_raises(self):
        m = ResourceMap()
        with pytest.raises(MapContradiction):
            m.set("x", Interval(2, 1))

    def test_copy_is_independent(self):
        m = ResourceMap({"x": Interval.closed(0, 10)})
        c = m.copy()
        c.set("x", Interval.point(5))
        assert m["x"] == Interval.closed(0, 10)

    def test_len_iter(self):
        m = ResourceMap({"a": Interval.point(1), "b": Interval.point(2)})
        assert len(m) == 2
        assert sorted(m) == ["a", "b"]

    def test_equality(self):
        a = ResourceMap({"x": Interval.point(1)})
        b = ResourceMap({"x": Interval.point(1)})
        assert a == b


class TestConstrain:
    def test_absent_var_adopts_interval(self):
        """Fig. 8's 'newly added optimistic intervals'."""
        m = ResourceMap()
        got = m.constrain("ibw:M@n1", Interval.half_open(90, 100))
        assert got == Interval.half_open(90, 100)

    def test_present_var_intersects(self):
        m = ResourceMap({"ibw:M@n1": Interval.closed(0, 70)})
        got = m.constrain("ibw:M@n1", Interval.closed(50, 100))
        assert got == Interval.closed(50, 70)

    def test_contradiction_raises_with_context(self):
        # The Scenario 1 detection: availability [0,70] cannot meet [90,100).
        m = ResourceMap({"ibw:M@n1": Interval.closed(0, 70)})
        with pytest.raises(MapContradiction) as exc:
            m.constrain("ibw:M@n1", Interval.half_open(90, 100))
        assert exc.value.var == "ibw:M@n1"

    def test_constrain_empty_interval_raises(self):
        m = ResourceMap()
        with pytest.raises(MapContradiction):
            m.constrain("x", Interval(5, 1))

    def test_satisfies_nonmutating(self):
        m = ResourceMap({"x": Interval.closed(0, 10)})
        assert m.satisfies("x", Interval.closed(5, 20))
        assert not m.satisfies("x", Interval.closed(11, 20))
        assert m["x"] == Interval.closed(0, 10)

    def test_satisfies_absent_var(self):
        m = ResourceMap()
        assert m.satisfies("y", Interval.closed(0, 1))
        assert not m.satisfies("y", Interval(2, 1))
