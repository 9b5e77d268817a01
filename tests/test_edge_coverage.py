"""Edge-case coverage for small public behaviours not exercised elsewhere."""

import math

import pytest

from repro.expr import Direction, parse_formula
from repro.model import SpecError
from repro.network import LATENCY, ResourceDecl, ResourceScope


class TestDirectionFlip:
    def test_flip_pairs(self):
        assert Direction.NONDECREASING.flip() is Direction.NONINCREASING
        assert Direction.NONINCREASING.flip() is Direction.NONDECREASING

    def test_flip_identity_cases(self):
        assert Direction.CONSTANT.flip() is Direction.CONSTANT
        assert Direction.UNKNOWN.flip() is Direction.UNKNOWN


class TestResourceDeclValidation:
    def test_degradable_and_upgradable_conflict(self):
        with pytest.raises(ValueError):
            ResourceDecl("x", ResourceScope.NODE, degradable=True, upgradable=True)

    def test_latency_decl_shape(self):
        assert LATENCY.upgradable and not LATENCY.consumable
        assert LATENCY.scope is ResourceScope.LINK


class TestParseFormulaDetection:
    def test_ge_not_mistaken_for_assignment(self):
        from repro.expr import Compare

        node = parse_formula("a >= b - 1")
        assert isinstance(node, Compare)

    def test_minus_equals_detected(self):
        from repro.expr import Assign

        node = parse_formula("x -= y")
        assert isinstance(node, Assign) and node.op == "-="


class TestLevelSpecEdge:
    def test_single_cutpoint_levels(self):
        from repro.model import LevelSpec

        spec = LevelSpec((100.0,))
        assert spec.count == 2
        assert spec.classify_value(99.999) == 0
        assert spec.classify_value(100.0) == 1

    def test_interval_entirely_above_bound_is_empty(self):
        from repro.model import LevelSpec

        spec = LevelSpec((10.0, 20.0))
        assert spec.interval(2, upper_bound=15.0).is_empty()

    def test_nan_cutpoint_rejected(self):
        from repro.model import LevelSpec

        with pytest.raises(SpecError):
            LevelSpec((math.nan,))


class TestNetworkRemoveLink:
    def test_remove_and_degree(self):
        from repro.network import ring_network

        net = ring_network(4)
        net.remove_link("n0", "n1")
        assert not net.has_link("n0", "n1")
        assert net.degree("n0") == 1
        assert net.is_connected()  # ring minus one edge is a path

    def test_remove_unknown_link(self):
        from repro.network import NetworkError, ring_network

        net = ring_network(4)
        with pytest.raises(NetworkError):
            net.remove_link("n0", "n2")
