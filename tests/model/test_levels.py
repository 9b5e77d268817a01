"""Unit tests for LevelSpec and Leveling."""

import math

import pytest

from repro.intervals import Interval
from repro.model import Leveling, LevelSpec, SpecError, TRIVIAL_LEVELS


class TestLevelSpec:
    def test_paper_fig6_levels(self):
        spec = LevelSpec((30, 70, 90, 100))
        assert spec.count == 5
        ivs = spec.intervals()
        assert ivs[0] == Interval.half_open(0, 30)
        assert ivs[3] == Interval.half_open(90, 100)
        assert math.isinf(ivs[4].hi)

    def test_trivial(self):
        assert TRIVIAL_LEVELS.is_trivial()
        assert TRIVIAL_LEVELS.count == 1
        assert TRIVIAL_LEVELS.interval(0) == Interval.nonnegative()

    def test_clipping_to_bound(self):
        spec = LevelSpec((30, 70, 90, 100))
        top = spec.interval(4, upper_bound=200.0)
        assert top == Interval.closed(100, 200)

    def test_clipping_empties_levels_above_bound(self):
        spec = LevelSpec((30, 70, 90, 100))
        assert spec.interval(4, upper_bound=95.0).is_empty()
        assert spec.feasible_indices(95.0) == [0, 1, 2, 3]

    def test_clip_mid_level(self):
        spec = LevelSpec((30, 70, 90, 100))
        iv = spec.interval(3, upper_bound=95.0)
        assert iv == Interval.closed(90, 95)

    def test_validation(self):
        with pytest.raises(SpecError):
            LevelSpec((10, 10))
        with pytest.raises(SpecError):
            LevelSpec((-5,))
        with pytest.raises(SpecError):
            LevelSpec((30, 20))
        with pytest.raises(SpecError):
            LevelSpec((math.inf,))

    def test_index_out_of_range(self):
        with pytest.raises(SpecError):
            LevelSpec((10,)).interval(2)


class TestClassification:
    def test_classify_value(self):
        spec = LevelSpec((30, 70, 90, 100))
        assert spec.classify_value(0) == 0
        assert spec.classify_value(29.9) == 0
        assert spec.classify_value(30) == 1
        assert spec.classify_value(90) == 3
        assert spec.classify_value(100) == 4
        assert spec.classify_value(200) == 4

    def test_classify_snaps_float_fuzz(self):
        # 90 * 0.7 != 63.0 exactly, but must classify as the 63 cutpoint.
        spec = LevelSpec((21, 49, 63, 70))
        assert spec.classify_value(90 * 0.7) == 3

    def test_classify_interval_half_open_at_cutpoint(self):
        # [63, 70) tops out strictly below the 70 cutpoint.
        spec = LevelSpec((21, 49, 63, 70))
        assert spec.classify_interval(Interval.half_open(63, 70)) == 3
        assert spec.classify_interval(Interval.point(70)) == 4

    def test_classify_interval_uses_best_value(self):
        spec = LevelSpec((90, 100))
        assert spec.classify_interval(Interval.closed(0, 95)) == 1

    def test_classify_empty_rejected(self):
        with pytest.raises(SpecError):
            LevelSpec((10,)).classify_interval(Interval(5, 1))


class TestScaled:
    def test_proportional_family(self):
        m = LevelSpec((30, 70, 90, 100))
        t = m.scaled(0.7)
        assert t.cutpoints == (21, 49, 63, 70)

    def test_scaled_snaps_products(self):
        m = LevelSpec((90, 100))
        t = m.scaled(0.7)
        assert t.cutpoints == (63.0, 70.0)  # not 62.99999999999999

    def test_invalid_factor(self):
        with pytest.raises(SpecError):
            LevelSpec((10,)).scaled(0)


class TestLeveling:
    def test_for_var_defaults_trivial(self):
        lev = Leveling({"M.ibw": LevelSpec((100,))})
        assert lev.for_var("M.ibw").count == 2
        assert lev.for_var("T.ibw").is_trivial()
