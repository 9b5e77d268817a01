"""Interval type with open/closed bound bookkeeping.

The planner reasons about real-valued resource and property variables via
intervals.  Resource *levels* in the paper are half-open ``[lo, hi)``
intervals; whether a bound is attainable matters for condition checks
(``[0, 90)`` does not satisfy ``>= 90`` while ``[90, 100)`` does), so the
interval type tracks openness of each endpoint explicitly.

Intervals are immutable by contract; all operations return new instances.
(Construction sits on the replay hot path — millions of instances per
search — so the class is a hand-rolled ``__slots__`` class rather than a
frozen dataclass: frozen-init ``object.__setattr__`` dispatch roughly
triples construction cost.  Nothing in the codebase mutates an interval
after construction.)
"""

from __future__ import annotations

import math

__all__ = ["Interval", "EMPTY"]

_INF = math.inf
_NINF = -math.inf


class Interval:
    """A (possibly empty, possibly unbounded) real interval.

    Attributes
    ----------
    lo, hi:
        Endpoint values.  ``hi`` may be ``math.inf``; ``lo`` may be
        ``-math.inf``.
    lo_open, hi_open:
        Whether each endpoint is excluded.  Infinite endpoints are never
        attainable and are normalized to open at construction, so openness
        logic needs no special-casing downstream.
    """

    __slots__ = ("lo", "hi", "lo_open", "hi_open")

    def __init__(
        self,
        lo: float,
        hi: float,
        lo_open: bool = False,
        hi_open: bool = False,
    ):
        self.lo = lo
        self.hi = hi
        self.lo_open = lo_open or lo == _NINF
        self.hi_open = hi_open or hi == _INF

    def __eq__(self, other: object) -> bool:
        if other.__class__ is Interval:
            return (
                self.lo == other.lo
                and self.hi == other.hi
                and self.lo_open == other.lo_open
                and self.hi_open == other.hi_open
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.lo, self.hi, self.lo_open, self.hi_open))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def closed(lo: float, hi: float) -> "Interval":
        """``[lo, hi]``."""
        return Interval(lo, hi, False, False)

    @staticmethod
    def half_open(lo: float, hi: float) -> "Interval":
        """``[lo, hi)`` — the shape of a resource level."""
        return Interval(lo, hi, False, True)

    @staticmethod
    def open(lo: float, hi: float) -> "Interval":
        """``(lo, hi)``."""
        return Interval(lo, hi, True, True)

    @staticmethod
    def point(x: float) -> "Interval":
        """The degenerate interval ``[x, x]``."""
        return Interval(x, x, False, False)

    @staticmethod
    def at_least(lo: float) -> "Interval":
        """``[lo, inf)``."""
        return Interval(lo, _INF, False, True)

    @staticmethod
    def nonnegative() -> "Interval":
        """``[0, inf)`` — the default level of an unleveled variable."""
        return Interval(0.0, _INF, False, True)

    # -- basic queries -----------------------------------------------------

    def is_empty(self) -> bool:
        """True when the interval contains no points."""
        if self.lo > self.hi:
            return True
        if self.lo == self.hi:
            return self.lo_open or self.hi_open or math.isinf(self.lo)
        return False

    def is_point(self) -> bool:
        """True when the interval is a single attainable value."""
        return self.lo == self.hi and not (self.lo_open or self.hi_open)

    def is_bounded(self) -> bool:
        return math.isfinite(self.lo) and math.isfinite(self.hi)

    def width(self) -> float:
        """Length of the interval (0 for empty/point, inf if unbounded)."""
        if self.is_empty():
            return 0.0
        return self.hi - self.lo

    def __contains__(self, x: float) -> bool:
        if self.is_empty():
            return False
        if x < self.lo or (x == self.lo and self.lo_open):
            return False
        if x > self.hi or (x == self.hi and self.hi_open):
            return False
        return True

    def __bool__(self) -> bool:
        return not self.is_empty()

    # -- attainable extrema ------------------------------------------------

    def greedy_value(self, cap: float = _INF) -> float:
        """The value a greedy (max-utilization) concretizer picks.

        Levels cap greed at their upper cutpoint (DESIGN.md rule 2): the
        planner processes ``min(cap, hi)`` units.  The open upper bound is
        intentionally treated as attainable here — the cutpoint is a
        processing cap, not a strict constraint on the concrete value.
        """
        v = min(self.hi, cap)
        if math.isinf(v):
            raise ValueError(f"cannot concretize unbounded interval {self} without a cap")
        return max(v, self.lo)

    # -- set operations ----------------------------------------------------

    def intersect(self, other: "Interval") -> "Interval":
        """Set intersection (may be empty)."""
        if self.lo > other.lo:
            lo, lo_open = self.lo, self.lo_open
        elif other.lo > self.lo:
            lo, lo_open = other.lo, other.lo_open
        else:
            lo, lo_open = self.lo, self.lo_open or other.lo_open
        if self.hi < other.hi:
            hi, hi_open = self.hi, self.hi_open
        elif other.hi < self.hi:
            hi, hi_open = other.hi, other.hi_open
        else:
            hi, hi_open = self.hi, self.hi_open or other.hi_open
        return Interval(lo, hi, lo_open, hi_open)

    def hull(self, other: "Interval") -> "Interval":
        """Smallest interval containing both operands."""
        if self.is_empty():
            return other
        if other.is_empty():
            return self
        if self.lo < other.lo:
            lo, lo_open = self.lo, self.lo_open
        elif other.lo < self.lo:
            lo, lo_open = other.lo, other.lo_open
        else:
            lo, lo_open = self.lo, self.lo_open and other.lo_open
        if self.hi > other.hi:
            hi, hi_open = self.hi, self.hi_open
        elif other.hi > self.hi:
            hi, hi_open = other.hi, other.hi_open
        else:
            hi, hi_open = self.hi, self.hi_open and other.hi_open
        return Interval(lo, hi, lo_open, hi_open)

    def contains_interval(self, other: "Interval") -> bool:
        """True when ``other`` is a subset of this interval."""
        if other.is_empty():
            return True
        if self.is_empty():
            return False
        lo_ok = other.lo > self.lo or (
            other.lo == self.lo and (other.lo_open or not self.lo_open)
        )
        hi_ok = other.hi < self.hi or (
            other.hi == self.hi and (other.hi_open or not self.hi_open)
        )
        return lo_ok and hi_ok

    def overlaps(self, other: "Interval") -> bool:
        return not self.intersect(other).is_empty()

    # -- existential comparison satisfiability ------------------------------
    #
    # These implement the planner's existential condition semantics
    # (DESIGN.md rule 3): a leveled condition survives iff *some* value in
    # the committed interval satisfies it.

    def exists_ge(self, c: float) -> bool:
        """∃ v ∈ self: v >= c."""
        if self.is_empty():
            return False
        return self.hi > c or (self.hi == c and not self.hi_open)

    def exists_eq(self, c: float) -> bool:
        """∃ v ∈ self: v == c."""
        return c in self

    # -- misc ----------------------------------------------------------------

    def shifted(self, delta: float) -> "Interval":
        return Interval(self.lo + delta, self.hi + delta, self.lo_open, self.hi_open)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.is_empty():
            return "Interval<empty>"
        lb = "(" if self.lo_open else "["
        rb = ")" if self.hi_open else "]"
        return f"{lb}{self.lo:g}, {self.hi:g}{rb}"


EMPTY = Interval(1.0, 0.0)
"""A canonical empty interval."""
