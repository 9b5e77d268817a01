"""Unit tests for component specifications."""

import pytest

from repro.expr import Num
from repro.model import ComponentSpec, SpecError


def merger():
    return ComponentSpec.parse(
        "Merger",
        requires=["T", "I"],
        implements=["M"],
        conditions=["Node.cpu >= (T.ibw+I.ibw)/5", "T.ibw*3 == I.ibw*7"],
        effects=["M.ibw := T.ibw + I.ibw", "Node.cpu -= (T.ibw+I.ibw)/5"],
        cost="1+(I.ibw+T.ibw)/10",
    )


class TestParse:
    def test_fig2_merger(self):
        m = merger()
        assert m.requires == ("T", "I")
        assert m.implements == ("M",)
        assert len(m.conditions) == 2 and len(m.effects) == 2
        assert m.cost is not None

    def test_default_cost_is_unit(self):
        c = ComponentSpec.parse("Client", requires=["M"])
        assert c.cost_expr() == Num(1.0)


class TestValidation:
    def test_name_must_be_identifier(self):
        with pytest.raises(SpecError):
            ComponentSpec.parse("bad name", requires=["M"])

    def test_interface_both_required_and_implemented(self):
        with pytest.raises(SpecError):
            ComponentSpec.parse("X", requires=["M"], implements=["M"],
                               effects=["M.ibw := 1"])

    def test_duplicate_linkage(self):
        with pytest.raises(SpecError):
            ComponentSpec.parse("X", requires=["M", "M"])

    def test_out_of_scope_variable(self):
        with pytest.raises(SpecError) as exc:
            ComponentSpec.parse(
                "X", requires=["T"], conditions=["Q.ibw >= 5"]
            )
        assert "Q.ibw" in str(exc.value)

    def test_node_vars_always_in_scope(self):
        c = ComponentSpec.parse("X", requires=["T"], conditions=["Node.cpu >= 5"])
        assert c.name == "X"

    def test_implemented_interface_must_be_assigned(self):
        with pytest.raises(SpecError) as exc:
            ComponentSpec.parse("X", requires=["T"], implements=["M"],
                               effects=["Node.cpu -= 1"])
        assert "never" in str(exc.value)

    def test_all_formulas_collects_everything(self):
        assert len(merger().all_formulas()) == 5
