"""Live telemetry streaming between workers and their coordinator.

While a :class:`~repro.parallel.Supervisor` shard runs, the worker can
push small incremental *frames* back over its existing command pipe —
interleaved with, and distinct from, the final results message — so the
coordinator can watch the fleet instead of staring at a silent
``recv()``.  A frame is a plain dict (trivially picklable, schema below);
the stream is strictly informational: dropping every frame changes
nothing about results, metrics merging, or determinism, and a pipeline
with streaming off sends no frames at all (guarded by
``tests/obs/test_overhead_guard.py``).

Frame schema (all frames)::

    {"kind": ..., "pid": int, "seq": int, "ts_s": float,    # epoch
     "task": int | None, "label": str, "done": int, "total": int}

Kinds:

* ``task_start`` — a task began; ``label`` names it (``Tiny/B``,
  ``seed=7``, the member app name).
* ``task_end`` — a task finished; adds ``ok`` (bool) and ``metrics``
  (the task result's metric records, when the task carried telemetry) so
  the live registry can fold in cache hit rates and repair TTR as they
  happen.
* ``heartbeat`` — periodic liveness ping carrying the current task.
* ``heartbeat_missed`` — synthesized *coordinator-side* by the
  supervisor when a streaming worker goes quiet (see
  ``Supervisor.run``); counted as
  ``pool.heartbeat.missed`` in the live registry.
* ``heartbeat_recovered`` — synthesized coordinator-side when a stalled
  worker speaks again (e.g. after SIGCONT); clears the view's missed
  strikes so the STALLED row disappears instead of sticking stale.
* ``worker_respawned`` / ``task_retried`` / ``task_quarantined`` —
  synthesized by the :class:`~repro.parallel.Supervisor` as it recovers
  from worker deaths; counted in the live registry
  (``pool.worker.respawned`` etc.) so ``--live`` shows recovery as it
  happens.

The coordinator folds frames into a :class:`StreamAggregator`, whose
registry is **live/display-only** — the deterministic final metrics
merge stays the task-ordered :meth:`MetricsSnapshot.merge_into
<repro.parallel.MetricsSnapshot.merge_into>` walk, so watching a run
never changes what it records.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field

from .metrics import MetricsRegistry

__all__ = [
    "DEFAULT_STREAM_INTERVAL_S",
    "task_label",
    "make_frame",
    "FrameSender",
    "WorkerView",
    "StreamAggregator",
]

DEFAULT_STREAM_INTERVAL_S = 0.25
"""Default heartbeat period for streaming workers (``--live``)."""


def task_label(payload) -> str:
    """A short human label for one task payload.

    Duck-typed over the envelope shapes in :mod:`repro.parallel.workers`:
    Table-2 cells render as ``network/scenario``, campaign runs as
    ``seed=N``, repair tasks as the member app's name; anything else
    falls back to the payload's type name.
    """
    network = getattr(payload, "network", None)
    scenario = getattr(payload, "scenario", None)
    if isinstance(network, str) and isinstance(scenario, str):
        return f"{network}/{scenario}"
    if hasattr(payload, "seed"):
        return f"seed={payload.seed}"
    name = getattr(getattr(payload, "app", None), "name", "")
    if name:
        return str(name)
    return type(payload).__name__


def make_frame(
    kind: str,
    task: int | None = None,
    label: str = "",
    done: int = 0,
    total: int = 0,
    **extra,
) -> dict:
    """Build one frame dict (used by serial drivers and tests).

    ``seq`` is 0 here; :class:`FrameSender` overwrites it with its own
    monotone counter on real worker streams.
    """
    frame = {
        "kind": kind,
        "pid": os.getpid(),
        "seq": 0,
        "ts_s": time.time(),
        "task": task,
        "label": label,
        "done": done,
        "total": total,
    }
    frame.update(extra)
    return frame


class FrameSender:
    """Worker-side frame emitter for one shard.

    Sends ``("frame", dict)`` messages over the worker's command pipe,
    guarded by a lock shared with the heartbeat thread; the thread is
    stopped and joined by :meth:`close` *before* the worker sends its
    final ``("done", results)`` message, so no frame ever trails the
    results.  A broken pipe silently disables the stream — frames are
    best-effort and must never fail the task.
    """

    def __init__(self, conn, interval_s: float, total: int):
        self._conn = conn
        self._lock = threading.Lock()
        self._pid = os.getpid()
        self._seq = 0
        self._broken = False
        self._task: int | None = None
        self._label = ""
        self._done = 0
        self._total = total
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._beat, args=(max(interval_s, 0.01),),
            name="repro-heartbeat", daemon=True,
        )
        self._thread.start()

    def _send(self, frame: dict) -> None:
        if self._broken:
            return
        with self._lock:
            frame["pid"] = self._pid
            frame["seq"] = self._seq
            self._seq += 1
            try:
                self._conn.send(("frame", frame))
            except (BrokenPipeError, OSError):
                self._broken = True

    def _beat(self, interval_s: float) -> None:
        while not self._stop.wait(interval_s):
            self._send(
                make_frame(
                    "heartbeat",
                    task=self._task,
                    label=self._label,
                    done=self._done,
                    total=self._total,
                )
            )

    def task_start(self, index: int, payload) -> None:
        self._task = index
        self._label = task_label(payload)
        self._send(
            make_frame(
                "task_start",
                task=index,
                label=self._label,
                done=self._done,
                total=self._total,
            )
        )

    def task_end(self, index: int, ok: bool, result) -> None:
        self._done += 1
        snapshot = getattr(result, "metrics", None)
        records = list(getattr(snapshot, "records", ()) or ())
        self._send(
            make_frame(
                "task_end",
                task=index,
                label=self._label,
                done=self._done,
                total=self._total,
                ok=ok,
                metrics=records,
            )
        )

    def close(self) -> None:
        """Stop the heartbeat thread; must precede the results send."""
        self._stop.set()
        self._thread.join(timeout=5.0)


@dataclass
class WorkerView:
    """What the coordinator currently knows about one worker."""

    worker: int
    pid: int = 0
    task: int | None = None
    label: str = ""
    done: int = 0
    total: int = 0
    frames: int = 0
    last_ts_s: float = 0.0
    missed: int = 0
    """Consecutive missed-heartbeat strikes; reset by any real frame."""


@dataclass
class StreamAggregator:
    """Coordinator-side fold of the frame stream into a live registry.

    One :class:`WorkerView` per worker plus a *display-only*
    :class:`~repro.obs.MetricsRegistry` (``live``) accumulated from
    ``task_end`` frames — counters and histograms fold exactly as the
    deterministic post-run merge does, just earlier and without touching
    the run's own telemetry.
    """

    workers: dict[int, WorkerView] = field(default_factory=dict)
    live: MetricsRegistry = field(default_factory=MetricsRegistry)
    started_s: float = field(default_factory=time.time)
    frames: int = 0

    def on_frame(self, worker: int, frame: dict) -> None:
        view = self.workers.setdefault(worker, WorkerView(worker=worker))
        self.frames += 1
        view.frames += 1
        view.pid = frame.get("pid", view.pid) or view.pid
        view.last_ts_s = frame.get("ts_s", view.last_ts_s)
        kind = frame.get("kind")
        if kind == "heartbeat_missed":
            view.missed += 1
            self.live.inc("pool.heartbeat.missed")
            return
        if kind == "heartbeat_recovered":
            view.missed = 0
            self.live.inc("pool.heartbeat.recovered")
            return
        if kind == "worker_respawned":
            # New process in the same slot: reset the view's liveness
            # state; progress counters (done/total) survive the respawn.
            view.missed = 0
            view.task = None
            view.label = ""
            self.live.inc("pool.worker.respawned")
            return
        if kind == "task_retried":
            self.live.inc("pool.task.retried")
            return
        if kind == "task_quarantined":
            self.live.inc("pool.task.quarantined")
            return
        view.missed = 0
        if "task" in frame:
            view.task = frame["task"]
        if frame.get("label"):
            view.label = frame["label"]
        view.done = frame.get("done", view.done)
        view.total = max(frame.get("total", view.total), view.total)
        if frame.get("kind") == "task_end" and frame.get("metrics"):
            self.live.merge_snapshot(list(frame["metrics"]))

    # -- derived figures for the live view ------------------------------------

    @property
    def tasks_done(self) -> int:
        return sum(v.done for v in self.workers.values())

    @property
    def tasks_total(self) -> int:
        return sum(v.total for v in self.workers.values())

    def eta_s(self, now_s: float | None = None) -> float | None:
        """Naive remaining-time estimate from the aggregate task rate."""
        done, total = self.tasks_done, self.tasks_total
        if done <= 0 or total <= done:
            return None
        elapsed = (now_s if now_s is not None else time.time()) - self.started_s
        if elapsed <= 0:
            return None
        return elapsed / done * (total - done)

    def cache_hit_rate(self) -> float | None:
        """``cache.hit / (cache.hit + cache.miss)`` so far, if seen."""
        hit = self.live.get("cache.hit")
        miss = self.live.get("cache.miss")
        hits = hit.value if hit is not None else 0
        misses = miss.value if miss is not None else 0
        if hits + misses == 0:
            return None
        return hits / (hits + misses)

    def repair_ttr_ms(self) -> float | None:
        """Mean ``repair.ttr`` across the fleet so far, if seen."""
        hist = self.live.get("repair.ttr")
        if hist is None or not getattr(hist, "count", 0):
            return None
        return hist.mean

    @property
    def heartbeat_missed(self) -> int:
        counter = self.live.get("pool.heartbeat.missed")
        return counter.value if counter is not None else 0

    def _count(self, name: str) -> int:
        counter = self.live.get(name)
        return counter.value if counter is not None else 0

    @property
    def respawned(self) -> int:
        return self._count("pool.worker.respawned")

    @property
    def retried(self) -> int:
        return self._count("pool.task.retried")

    @property
    def quarantined(self) -> int:
        return self._count("pool.task.quarantined")
