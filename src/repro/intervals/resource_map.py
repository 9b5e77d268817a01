"""Optimistic resource maps (paper §3.2.3, Fig. 8).

A :class:`ResourceMap` binds resource/property variable names to intervals.
During the main-regression-graph search a plan tail is *replayed* in the
optimistic map of its newest action: before executing each action, the
interval produced so far is intersected with the action's optimistic
interval (a contradiction prunes the node), and new optimistic intervals
are added for variables not yet mentioned.
"""

from __future__ import annotations

from typing import Iterator, Mapping

from .interval import Interval

__all__ = ["ResourceMap", "MapContradiction"]


class MapContradiction(Exception):
    """Raised when intersecting an interval into a map empties it.

    Carries the variable and the two incompatible intervals so replay
    failures can be explained in traces.
    """

    def __init__(self, var: str, have: Interval, want: Interval):
        super().__init__(f"resource map contradiction on {var}: {have} ∩ {want} = ∅")
        self.var = var
        self.have = have
        self.want = want


class ResourceMap:
    """A mutable mapping from variable names to intervals.

    The map distinguishes *absent* variables (no constraint yet) from
    variables constrained to some interval.  ``copy()`` is cheap (a dict
    copy) — plan tails are short, so replay clones maps freely.
    """

    __slots__ = ("_vars",)

    def __init__(self, initial: Mapping[str, Interval] | None = None):
        self._vars: dict[str, Interval] = dict(initial) if initial else {}

    # -- mapping protocol ---------------------------------------------------

    def __getitem__(self, var: str) -> Interval:
        return self._vars[var]

    def get(self, var: str, default: Interval | None = None) -> Interval | None:
        return self._vars.get(var, default)

    def __contains__(self, var: str) -> bool:
        return var in self._vars

    def __iter__(self) -> Iterator[str]:
        return iter(self._vars)

    def __len__(self) -> int:
        return len(self._vars)

    def items(self):
        return self._vars.items()

    def copy(self) -> "ResourceMap":
        return ResourceMap(self._vars)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ResourceMap):
            return NotImplemented
        return self._vars == other._vars

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(f"{k}={v!r}" for k, v in sorted(self._vars.items()))
        return f"ResourceMap({inner})"

    # -- planner operations -------------------------------------------------

    def set(self, var: str, interval: Interval) -> None:
        """Overwrite the binding for ``var`` (action execution result)."""
        if interval.is_empty():
            raise MapContradiction(var, interval, interval)
        self._vars[var] = interval

    def constrain(self, var: str, interval: Interval) -> Interval:
        """Intersect ``interval`` into the binding for ``var``.

        Absent variables are bound to ``interval`` directly (the "newly
        added optimistic intervals" of Fig. 8).  Returns the resulting
        binding; raises :class:`MapContradiction` if it would be empty.
        """
        have = self._vars.get(var)
        if have is None:
            if interval.is_empty():
                raise MapContradiction(var, interval, interval)
            self._vars[var] = interval
            return interval
        if interval.contains_interval(have):
            # No-op constraint (e.g. a loose seed over an already-tight
            # binding): the intersection is exactly ``have``, so skip the
            # allocation.  Bindings are never empty, so no contradiction.
            return have
        merged = have.intersect(interval)
        if merged.is_empty():
            raise MapContradiction(var, have, interval)
        self._vars[var] = merged
        return merged

    def satisfies(self, var: str, interval: Interval) -> bool:
        """Non-mutating check that ``var`` is compatible with ``interval``."""
        have = self._vars.get(var)
        if have is None:
            return not interval.is_empty()
        return have.overlaps(interval)
