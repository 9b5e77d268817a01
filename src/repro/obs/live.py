"""The ``--live`` terminal progress view over a streaming fleet.

:class:`LiveMonitor` is the glue between a frame stream (worker pushes
multiplexed by ``Supervisor.run(..., on_frame=...)``, or synthetic
frames from a serial driver) and a terminal: it folds frames into a
:class:`~repro.obs.StreamAggregator` and repaints a compact table — one
row per worker, tasks done/total, the task each worker is on, and the
aggregate ETA / cache-hit-rate / repair-TTR headline — at a bounded
rate.  On a TTY the table repaints in place with ANSI cursor movement;
on anything else (CI logs, pipes) it degrades to one summary line per
repaint interval so logs stay readable.

The monitor writes to *stderr* by default: every streaming command
(``simulate``, ``controller``, ``bench``) promises byte-identical
*stdout* across runs, and the live view must not break that.
"""

from __future__ import annotations

import sys
import time

from .stream import StreamAggregator

__all__ = ["LiveMonitor"]

_PAINT_INTERVAL_S = 0.2
_NONTTY_INTERVAL_S = 2.0


def _fmt_eta(eta_s: float | None) -> str:
    if eta_s is None:
        return "--"
    if eta_s >= 60:
        return f"{int(eta_s // 60)}m{int(eta_s % 60):02d}s"
    return f"{eta_s:.1f}s"


class LiveMonitor:
    """Render a live fleet table from telemetry frames.

    Pass :meth:`on_frame` as the ``on_frame`` callback of
    ``Supervisor.run``; serial drivers call it directly with worker 0
    frames.  Call :meth:`finish` when the run completes to paint the
    final state and release the terminal.
    """

    def __init__(self, out=None, aggregator: StreamAggregator | None = None):
        self.aggregator = aggregator or StreamAggregator()
        self._out = out if out is not None else sys.stderr
        self._isatty = bool(getattr(self._out, "isatty", lambda: False)())
        self._paint_interval = _PAINT_INTERVAL_S if self._isatty else _NONTTY_INTERVAL_S
        self._last_paint = 0.0
        self._painted_lines = 0

    def on_frame(self, worker: int, frame: dict) -> None:
        self.aggregator.on_frame(worker, frame)
        now = time.monotonic()
        if now - self._last_paint >= self._paint_interval:
            self._last_paint = now
            self.paint()

    # -- rendering -------------------------------------------------------------

    def headline(self) -> str:
        agg = self.aggregator
        parts = [f"live: {agg.tasks_done}/{agg.tasks_total} tasks"]
        parts.append(f"eta {_fmt_eta(agg.eta_s())}")
        rate = agg.cache_hit_rate()
        if rate is not None:
            parts.append(f"cache {rate * 100.0:.0f}%")
        ttr = agg.repair_ttr_ms()
        if ttr is not None:
            parts.append(f"ttr {ttr:.0f}ms")
        if agg.heartbeat_missed:
            parts.append(f"heartbeats missed {agg.heartbeat_missed}")
        if agg.respawned:
            parts.append(f"workers respawned {agg.respawned}")
        if agg.retried:
            parts.append(f"tasks retried {agg.retried}")
        if agg.quarantined:
            parts.append(f"tasks quarantined {agg.quarantined}")
        return "  ".join(parts)

    def render(self) -> str:
        """The full table: headline plus one row per worker."""
        lines = [self.headline()]
        for worker in sorted(self.aggregator.workers):
            view = self.aggregator.workers[worker]
            state = f"on {view.label}" if view.label else "idle"
            if view.missed:
                state = f"STALLED ({view.missed} heartbeats missed)"
            lines.append(
                f"  w{view.worker} pid {view.pid or '?':<7} "
                f"{view.done}/{view.total or '?'}  {state}"
            )
        return "\n".join(lines)

    def paint(self) -> None:
        if self._isatty:
            text = self.render()
            lines = text.count("\n") + 1
            if self._painted_lines:
                # Cursor to the start of the previous paint, clear down.
                self._out.write(f"\x1b[{self._painted_lines}F\x1b[J")
            self._out.write(text + "\n")
            self._painted_lines = lines
        else:
            self._out.write(self.headline() + "\n")
        self._out.flush()

    def finish(self) -> None:
        """Final paint; leaves the cursor below the table."""
        self.paint()
        self._painted_lines = 0
