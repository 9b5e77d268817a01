"""Resource levels (paper §3.1).

A :class:`LevelSpec` is an ordered list of *cutpoints* partitioning
``[0, ∞)`` into half-open intervals: cutpoints ``(30, 70, 90, 100)`` give
the five levels ``[0,30) [30,70) [70,90) [90,100) [100,∞)`` of the paper's
Fig. 6.  A spec with no cutpoints is *trivial* — the single level
``[0, ∞)`` — which recovers the original (greedy) Sekitei behaviour.

A :class:`Leveling` maps specification variables (``"M.ibw"``,
``"Link.lbw"``, ``"Node.cpu"``) to level specs; it is the experiment knob
of Table 1.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

from ..intervals import Interval
from .errors import SpecError

__all__ = ["LevelSpec", "TRIVIAL_LEVELS", "Leveling"]


@dataclass(frozen=True)
class LevelSpec:
    """An increasing tuple of positive cutpoints over ``[0, ∞)``."""

    cutpoints: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        pts = tuple(float(c) for c in self.cutpoints)
        object.__setattr__(self, "cutpoints", pts)
        if any(c <= 0 or not math.isfinite(c) for c in pts):
            raise SpecError(f"cutpoints must be positive and finite: {pts}")
        if any(b <= a for a, b in zip(pts, pts[1:])):
            raise SpecError(f"cutpoints must be strictly increasing: {pts}")

    # -- queries -----------------------------------------------------------

    @property
    def count(self) -> int:
        """Number of levels (cutpoints + 1)."""
        return len(self.cutpoints) + 1

    def is_trivial(self) -> bool:
        return not self.cutpoints

    def interval(self, index: int, upper_bound: float = math.inf) -> Interval:
        """The half-open interval of level ``index``.

        ``upper_bound`` clips the top level (and any level straddling it)
        to the statically known maximum of the variable — this is what
        makes the trivial level behave like the original greedy planner
        (DESIGN.md §2): the only interval becomes ``[0, bound]`` and
        worst-case consumption is evaluated at the full bound.
        """
        if not 0 <= index < self.count:
            raise SpecError(f"level index {index} out of range for {self}")
        lo = 0.0 if index == 0 else self.cutpoints[index - 1]
        hi = self.cutpoints[index] if index < len(self.cutpoints) else math.inf
        if math.isfinite(upper_bound):
            if hi > upper_bound:
                # Clip; the bound itself is attainable.
                return Interval(lo, upper_bound, False, False)
        return Interval.half_open(lo, hi)

    def intervals(self, upper_bound: float = math.inf) -> list[Interval]:
        """All level intervals, clipped to ``upper_bound``; empty ones
        (entirely above the bound) are preserved as empty for index
        stability — callers skip them."""
        return [self.interval(i, upper_bound) for i in range(self.count)]

    def _snap(self, value: float) -> float:
        """Snap ``value`` onto a cutpoint it matches within float fuzz.

        Effect formulas reconstruct cutpoint-aligned values through ratio
        arithmetic (``90 * 0.7`` vs the scaled T cutpoint 63); snapping
        keeps classification stable across those rounding paths.
        """
        i = bisect.bisect_left(self.cutpoints, value)
        tol = 1e-9 * max(1.0, abs(value))
        for j in (i - 1, i):
            if 0 <= j < len(self.cutpoints) and abs(self.cutpoints[j] - value) <= tol:
                return self.cutpoints[j]
        return value

    def classify_value(self, value: float) -> int:
        """Index of the level containing ``value`` (values < 0 map to 0)."""
        value = self._snap(value)
        if value < 0:
            return 0
        return bisect.bisect_right(self.cutpoints, value)

    def classify_interval(self, iv: Interval) -> int:
        """Highest level index the interval reaches.

        Produced availability propositions are classified by the best
        value the effect can deliver; degradable matching handles uses at
        lower levels.
        """
        if iv.is_empty():
            raise SpecError(f"cannot classify empty interval under {self}")
        hi = self._snap(iv.hi)
        idx = self.classify_value(hi)
        # An open upper bound sitting exactly on a cutpoint never attains
        # the cutpoint, so the interval tops out in the level below.
        if iv.hi_open and idx > 0 and idx <= len(self.cutpoints) and self.cutpoints[idx - 1] == hi:
            idx -= 1
        return idx

    def feasible_indices(self, upper_bound: float = math.inf) -> list[int]:
        """Indices of levels that survive clipping to ``upper_bound``."""
        return [i for i in range(self.count) if not self.interval(i, upper_bound).is_empty()]

    def scaled(self, factor: float) -> "LevelSpec":
        """Cutpoints multiplied by ``factor`` — the paper's "levels of T,
        I, and Z are proportional to those of the M stream".

        Products are snapped to 9 decimal digits so that proportional
        cutpoint families stay exactly aligned under the component ratio
        formulas (``0.7 * 90`` must be the same float as the T cutpoint).
        """
        if factor <= 0:
            raise SpecError("scale factor must be positive")
        return LevelSpec(tuple(round(c * factor, 9) for c in self.cutpoints))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.is_trivial():
            return "LevelSpec<trivial>"
        return f"LevelSpec{self.cutpoints}"


TRIVIAL_LEVELS = LevelSpec(())


@dataclass
class Leveling:
    """Assignment of level specs to specification variables.

    Keys are spec-variable names: interface properties (``"M.ibw"``),
    link resources (``"Link.lbw"``), node resources (``"Node.cpu"``).
    Unmapped variables get :data:`TRIVIAL_LEVELS`.
    """

    specs: dict[str, LevelSpec] = field(default_factory=dict)
    name: str = "custom"

    def for_var(self, var: str) -> LevelSpec:
        return self.specs.get(var, TRIVIAL_LEVELS)
