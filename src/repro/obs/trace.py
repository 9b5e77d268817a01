"""Structured search traces (re-exported as ``repro.planner.SearchTrace``).

Optional instrumentation of the RG phase: every node creation, pruning
decision (with its reason), expansion, and the terminal event are
recorded, giving the observability the paper's Figs. 7–8 sketch by hand.
Traces are bounded (a ring of the most recent events plus total counters)
so tracing a large search cannot exhaust memory.

The prune *reason* is a first-class event field — it is never re-parsed
out of the human-readable ``detail`` string, so reason tags containing
``:`` (or any other separator) survive aggregation intact.
"""

from __future__ import annotations

import time
from collections import Counter, deque
from dataclasses import dataclass, field

__all__ = ["TraceEvent", "SearchTrace"]


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One search event."""

    kind: str  # 'create' | 'expand' | 'prune' | 'terminal'
    action: str | None  # action name (None for the root / expansions)
    detail: str  # human-readable specifics (prune specifics, f-values, ...)
    depth: int
    reason: str | None = None  # prune reason tag; None for non-prune events
    ts: float = 0.0  # perf_counter seconds at record time


@dataclass
class SearchTrace:
    """Bounded event recorder with aggregate counters."""

    max_events: int = 2000
    events: deque = field(default_factory=deque)
    counters: Counter = field(default_factory=Counter)
    prune_reasons: Counter = field(default_factory=Counter)

    def record(
        self,
        kind: str,
        action: str | None,
        detail: str,
        depth: int,
        reason: str | None = None,
    ) -> None:
        self.counters[kind] += 1
        if kind == "prune":
            # The explicit reason tag; a reason-less prune is counted
            # verbatim under its detail string (never split on ':').
            self.prune_reasons[reason if reason is not None else detail] += 1
        if len(self.events) >= self.max_events:
            self.events.popleft()
        self.events.append(
            TraceEvent(kind, action, detail, depth, reason, time.perf_counter())
        )

    # -- convenience recorders (keep call sites terse) -----------------------

    def created(self, action: str, f: float, depth: int) -> None:
        self.record("create", action, f"f={f:g}", depth)

    def expanded(self, props: int, f: float, depth: int) -> None:
        self.record("expand", None, f"open={props} f={f:g}", depth)

    def pruned(self, action: str, reason: str, depth: int, detail: str = "") -> None:
        self.record("prune", action, detail or reason, depth, reason=reason)

    def terminal(self, cost: float, depth: int) -> None:
        self.record("terminal", None, f"cost={cost:g}", depth)

    # -- reporting -------------------------------------------------------------

    def summary(self) -> str:
        lines = ["search trace summary:"]
        for kind in ("create", "expand", "prune", "terminal"):
            lines.append(f"  {kind:9s}: {self.counters.get(kind, 0)}")
        if self.prune_reasons:
            lines.append("  prune reasons:")
            for reason, count in self.prune_reasons.most_common():
                lines.append(f"    {reason}: {count}")
        return "\n".join(lines)

    def tail(self, n: int = 20) -> list[TraceEvent]:
        return list(self.events)[-n:]
