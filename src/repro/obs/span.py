"""Hierarchical wall-clock spans — the one clock every reported duration reads.

A span is one timed region of planner work — a phase (compile, PLRG,
SLRG, RG, post-opt), a validation pass, or a whole experiment-harness
scenario run.  Spans nest: the recorder keeps a stack, so a span opened
while another is active becomes its child, and the resulting forest maps
directly onto the Chrome trace-event timeline.

:func:`timed` is the clock itself: it stamps a *detached* span, recorded
nowhere.  :meth:`SpanRecorder.span` stamps through it and then files the
span, and :func:`~repro.obs.maybe_span` falls back to it when telemetry
is off — so a duration the planner reports (``PlannerStats`` phase times,
``compile_seconds``, repair ``wall_ms`` …) is always a span's
``duration``, recorded or not.

Timestamps are ``time.perf_counter`` seconds; they are monotonic and
comparable only within one process, which is all a trace file needs
(exporters re-base them to zero).  Spans stitched home from a worker
process carry its ``pid`` (and pool ``worker`` index) and are already
re-based onto the coordinator's clock (:mod:`repro.obs.context`).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

__all__ = ["Span", "SpanRecorder", "timed"]


@dataclass(slots=True)
class Span:
    """One timed, attributed region of work.

    ``id`` is the span's id in its telemetry (-1 on a detached span
    from :func:`timed`).  ``pid`` and ``worker`` are ``None`` on local spans;
    a span stitched home from a worker carries the worker's process id
    (its trace lane) and, when the caller knows it, the pool's worker
    index.
    """

    id: int
    name: str
    start_s: float
    end_s: float | None = None
    parent: int | None = None  # id of the enclosing span, None for roots
    attrs: dict = field(default_factory=dict)
    pid: int | None = None
    worker: int | None = None

    @property
    def duration_s(self) -> float:
        """Span duration in seconds (0.0 while still open)."""
        return 0.0 if self.end_s is None else self.end_s - self.start_s

    @property
    def duration_ms(self) -> float:
        return self.duration_s * 1e3


@contextmanager
def timed(name: str, **attrs) -> Iterator[Span]:
    """A detached span: stamped on entry and exit, recorded nowhere.

    The ``as`` target's ``duration_s``/``duration_ms`` are valid once
    the block exits (also when it raises).
    """
    sp = Span(id=-1, name=name, start_s=time.perf_counter(), attrs=attrs)
    try:
        yield sp
    finally:
        sp.end_s = time.perf_counter()


class SpanRecorder:
    """Append-only span store with an active-span stack."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def __len__(self) -> int:
        return len(self.spans)

    @property
    def current_id(self) -> int | None:
        """Id of the innermost open span, or ``None`` outside any span."""
        return self._stack[-1] if self._stack else None

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[Span]:
        """Open a child of the currently active span; closes on exit."""
        with timed(name, **attrs) as sp:
            sp.id = len(self.spans)
            sp.parent = self._stack[-1] if self._stack else None
            self.spans.append(sp)
            self._stack.append(sp.id)
            try:
                yield sp
            finally:
                self._stack.pop()

    def children(self, span_id: int | None) -> list[Span]:
        return [s for s in self.spans if s.parent == span_id]

    def render_tree(self) -> str:
        """Indented span forest with millisecond durations."""
        lines: list[str] = []

        def walk(parent: int | None, indent: int) -> None:
            for sp in self.children(parent):
                attrs = ""
                if sp.attrs:
                    attrs = "  [" + ", ".join(
                        f"{k}={v}" for k, v in sorted(sp.attrs.items())
                    ) + "]"
                lines.append(f"{'  ' * indent}{sp.name:<24s} {sp.duration_ms:9.2f} ms{attrs}")
                walk(sp.id, indent + 1)

        walk(None, 0)
        return "\n".join(lines) if lines else "(no spans recorded)"
