"""Component specifications (paper Fig. 2).

A component consumes zero or more interfaces (``requires``), produces zero
or more (``implements``), and carries three formula blocks:

* ``conditions`` — predicates over required-interface properties and node
  resources that must hold for placement (CPU sufficiency, stream-rate
  relations);
* ``effects`` — assignments defining produced-interface properties and
  node-resource consumption;
* ``cost`` — the user-specified placement cost formula of §3.1
  (e.g. ``1 + (I.ibw + T.ibw)/10`` for the Merger).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ..expr import (
    Assign,
    Node,
    Num,
    parse_assign,
    parse_condition,
    parse_expr,
    variables,
)
from .errors import SpecError

__all__ = ["ComponentSpec"]


@dataclass
class ComponentSpec:
    """One deployable component type."""

    name: str
    requires: tuple[str, ...] = ()
    implements: tuple[str, ...] = ()
    conditions: tuple[Node, ...] = ()
    effects: tuple[Assign, ...] = ()
    cost: Node | None = None

    def __post_init__(self) -> None:
        if not self.name.isidentifier():
            raise SpecError(f"component name must be an identifier: {self.name!r}")
        if set(self.requires) & set(self.implements):
            raise SpecError(
                f"component {self.name}: an interface cannot be both required and implemented"
            )
        dupes = len(self.requires) != len(set(self.requires)) or len(self.implements) != len(
            set(self.implements)
        )
        if dupes:
            raise SpecError(f"component {self.name}: duplicate interface linkage")
        self._check_vars()

    @staticmethod
    def parse(
        name: str,
        requires: Iterable[str] = (),
        implements: Iterable[str] = (),
        conditions: Iterable[str] = (),
        effects: Iterable[str] = (),
        cost: str | None = None,
    ) -> "ComponentSpec":
        """Build a component from formula strings (the usual entry point)."""
        return ComponentSpec(
            name=name,
            requires=tuple(requires),
            implements=tuple(implements),
            conditions=tuple(parse_condition(c) for c in conditions),
            effects=tuple(parse_assign(e) for e in effects),
            cost=parse_expr(cost) if cost is not None else None,
        )

    # -- introspection -------------------------------------------------------

    def cost_expr(self) -> Node:
        return self.cost if self.cost is not None else Num(1.0)

    def all_formulas(self) -> list[Node]:
        out: list[Node] = list(self.conditions) + list(self.effects)
        if self.cost is not None:
            out.append(self.cost)
        return out

    def _check_vars(self) -> None:
        """Formulas may only mention linked interfaces and ``Node``."""
        linked = set(self.requires) | set(self.implements)
        for f in self.all_formulas():
            for v in variables(f):
                scope = v.split(".", 1)[0]
                if scope == "Node":
                    continue
                if scope not in linked:
                    raise SpecError(
                        f"component {self.name} references {v!r}; only Node.* and "
                        f"interfaces {sorted(linked)} are in scope"
                    )
        # Effects must define every implemented interface property they use.
        assigned = {a.target.name for a in self.effects}
        for iface in self.implements:
            produced = [a for a in assigned if a.startswith(f"{iface}.")]
            if not produced:
                raise SpecError(
                    f"component {self.name} implements {iface} but its effects never "
                    f"assign any {iface}.* property"
                )
