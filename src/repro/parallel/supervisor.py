"""Self-healing worker supervision (docs/ROBUSTNESS.md, "Supervised execution").

:class:`Supervisor` owns every worker process :mod:`repro.parallel`
starts.  It runs work two ways:

* :meth:`Supervisor.run` / :meth:`Supervisor.map` — a batch fan-out with
  deterministic sharding: task ``i`` starts on worker ``i % workers``,
  so a task set replayed against a persistent supervisor lands on the
  same workers every time and per-worker compile caches hit reliably.
* :meth:`Supervisor.race` — a priority race: payloads start in priority
  order, at most one per worker, each on the first worker that goes
  idle; the race stops once a caller-supplied callback accepts the
  report so far or a wall deadline passes, and workers still running a
  payload are SIGKILLed.  The racing degradation ladder
  (:func:`repro.planner.solve_robust` with ``workers > 1``) runs on it.

Both share the recovery machinery, so ``--workers 4`` is never *less*
reliable than ``--workers 1``:

* **Death detection** — workers send each task's result the moment it
  finishes, and the coordinator waits on pipes *and* process sentinels,
  so a SIGKILL, OOM, or segfault is detected immediately and the
  coordinator knows exactly which tasks the dead worker still owed: the
  in-flight task (head of its queue) and its unstarted tail.
* **Kill-and-respawn on stall** — with heartbeats flowing, a worker
  silent past the flag threshold (``STALL_INTERVALS`` periods) emits
  synthesized ``heartbeat_missed`` frames, and one silent past the
  *kill* budget (``SupervisorConfig.stall_kill_intervals`` periods) is
  SIGKILLed and treated as a death — escalation, not just labelling.
  Freshly (re)spawned workers get a startup grace: a worker is never
  killed before it has sent its first message (heartbeats are not
  flowing yet while the interpreter is still importing).
* **Retry with a budget** — the dead worker's tasks requeue onto the
  respawned worker (or survivors, when the respawn budget is spent).
  The in-flight task is charged one attempt under the
  :class:`~repro.simulate.RetryPolicy` shape (attempt budget plus
  deterministic exponential backoff, *accounted not slept*, exactly as
  the fault injector does).
* **Poison quarantine** — a task that kills
  ``SupervisorConfig.poison_kills`` consecutive workers is quarantined:
  recorded as a structured :class:`TaskQuarantined` outcome in the
  :class:`SupervisionReport` instead of aborting the run.
* **Graceful degradation** — when respawn fails or its budget is
  exhausted and no worker survives, remaining tasks run in-process,
  serially, in the coordinator (tasks that already killed a worker are
  quarantined rather than risked in-process).

Recoveries are observable: ``pool.worker.respawned``,
``pool.task.retried``, ``pool.task.quarantined``, and
``pool.worker.stall_killed`` counters land in the supervising
telemetry's registry, respawn/retry/quarantine events surface as frames
in the ``--live`` stream, and each respawn is recorded as a
``supervise.respawn`` span in the coordinator trace.

Determinism: results are keyed by task index and reassembled in payload
order, retries re-run the same pure task function on the same payload,
and backoff is accounted rather than slept — so a supervised run that
survives worker deaths returns **byte-identical** results to an
undisturbed serial run (``tests/parallel/test_determinism.py`` kills a
worker mid-campaign and diffs).

Fault injection for tests and CI: ``run(..., inject_kill={k})`` (and
``race``) makes the worker assigned task ``k`` SIGKILL *itself*
immediately before running it, once — the requeued attempt runs clean.
"""

from __future__ import annotations

import multiprocessing as mp
import time
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection
from typing import Callable, Sequence

from .pool import _run_one, _worker_main

__all__ = [
    "START_METHOD",
    "Supervisor",
    "SupervisorConfig",
    "SupervisionReport",
    "SupervisionStats",
    "TaskFailed",
    "TaskQuarantined",
    "resolve_workers",
]

START_METHOD = "spawn"

STALL_INTERVALS = 4
"""A streaming worker silent for this many heartbeat periods is stalled."""


class TaskFailed(RuntimeError):
    """One or more tasks raised in workers; carries remote tracebacks.

    ``index``/``remote_traceback`` describe the lowest failing task (the
    deterministic primary); ``failures`` maps *every* failed task index
    to its ``(message, remote_traceback)`` pair so multi-failure runs are
    debuggable in one pass, and ``indices`` lists them sorted.
    """

    def __init__(
        self,
        index: int,
        message: str,
        remote_traceback: str,
        failures: dict[int, tuple[str, str]] | None = None,
    ):
        self.index = index
        self.remote_traceback = remote_traceback
        self.failures = dict(failures) if failures else {index: (message, remote_traceback)}
        self.indices = sorted(self.failures)
        text = (
            f"task {index} failed in worker: {message}\n"
            f"--- remote traceback ---\n{remote_traceback}"
        )
        others = [i for i in self.indices if i != index]
        if others:
            text += f"\n({len(self.indices)} tasks failed in total: {self.indices})"
            for i in others:
                other_message, _tb = self.failures[i]
                text += f"\ntask {i} failed in worker: {other_message}"
        super().__init__(text)


def resolve_workers(workers: int | None, tasks: int) -> int:
    """Clamp a worker-count request to something sensible."""
    if workers is None or workers <= 1:
        return 1
    return max(1, min(workers, tasks))


def _synth_frame(kind: str, pid: int, **extra) -> dict:
    """A coordinator-side frame (stall/recovery/respawn bookkeeping)."""
    frame = {
        "kind": kind,
        "pid": pid,
        "seq": 0,
        "ts_s": time.time(),
        "task": None,
        "label": "",
        "done": 0,
        "total": 0,
    }
    frame.update(extra)
    return frame


@dataclass(frozen=True)
class SupervisorConfig:
    """Knobs of the supervision layer (defaults are production-safe)."""

    retry: object | None = None
    """Attempt budget + deterministic backoff for crash-requeued tasks;
    any object with ``max_attempts`` and ``backoff_s(attempt)`` works.
    ``None`` means :class:`repro.simulate.RetryPolicy`'s defaults."""

    poison_kills: int = 2
    """Consecutive worker deaths attributed to one task before it is
    quarantined as poison instead of requeued."""

    max_respawns: int = 8
    """Total worker respawns across this supervisor's lifetime; past the
    budget, tasks requeue onto survivors (or run in-process)."""

    stall_kill_intervals: int = 16
    """Heartbeat periods of silence before a streaming worker is
    SIGKILLed and respawned (the flag threshold stays
    ``STALL_INTERVALS``).  Only active while heartbeats flow."""

    heartbeat_interval_s: float | None = None
    """Force worker heartbeats at this period even without a live frame
    consumer, enabling stall escalation on quiet runs.  ``None`` keeps
    the default: no frames unless a stream is attached."""


@dataclass(frozen=True)
class TaskQuarantined:
    """A structured record of one task pulled from circulation."""

    index: int
    label: str
    attempts: int
    workers_killed: int
    reason: str

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "label": self.label,
            "attempts": self.attempts,
            "workers_killed": self.workers_killed,
            "reason": self.reason,
        }


@dataclass
class SupervisionStats:
    """What the supervisor had to do to finish one run."""

    respawns: int = 0
    retries: int = 0
    quarantined: int = 0
    stall_kills: int = 0
    inprocess: int = 0
    backoff_s: float = 0.0
    """Simulated (accounted, never slept) retry backoff, for parity with
    the fault injector's accounting."""


@dataclass
class SupervisionReport:
    """The outcome of one supervised run.

    ``values[i]`` is task ``i``'s result, or ``None`` where the task
    failed, was quarantined, or was cancelled (look it up in
    ``failures`` / ``quarantined`` / ``cancelled``).
    """

    values: list
    failures: dict[int, tuple[str, str]] = field(default_factory=dict)
    quarantined: list[TaskQuarantined] = field(default_factory=list)
    stats: SupervisionStats = field(default_factory=SupervisionStats)
    cancelled: list[int] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures and not self.quarantined

    def settled(self, index: int) -> bool:
        """Task ``index`` has a result, a failure, or a quarantine entry."""
        return (
            self.values[index] is not None
            or index in self.failures
            or any(q.index == index for q in self.quarantined)
        )

    def raise_on_failure(self) -> list:
        """``values`` if everything succeeded, else :class:`TaskFailed`.

        Quarantined tasks surface as failures here too — strict callers
        (the Table-2 sweep, benchmarks) want the loud contract; graceful
        callers (campaigns, the controller) read the report directly.
        """
        failures = dict(self.failures)
        for q in self.quarantined:
            failures.setdefault(q.index, (f"quarantined: {q.reason}", ""))
        if failures:
            first = min(failures)
            message, remote_tb = failures[first]
            raise TaskFailed(first, message, remote_tb, failures=failures)
        return self.values


class _Slot:
    """One supervised worker slot (respawnable in place)."""

    __slots__ = (
        "proc", "conn", "dead", "queued", "last_seen", "stalled", "stall_since", "spoken",
    )

    def __init__(self):
        self.proc = None
        self.conn = None
        self.dead = False  # respawn budget spent; never revived
        self.queued: list[int] = []  # unreported task indices, run order
        self.last_seen = 0.0
        self.stalled = False
        self.stall_since = 0.0
        self.spoken = False  # sent any message since (re)spawn


class Supervisor:
    """Persistent spawn-started workers with respawn, retry and quarantine.

    Use as a context manager::

        with Supervisor(4) as sup:
            rows = sup.map(run_cell_task, tasks)

    ``map`` keeps the strict raise-on-failure contract (after recovery
    has been attempted); ``run`` and ``race`` return the full
    :class:`SupervisionReport`.  Workers persist across calls, so
    per-process state (module import cost, compile caches) is paid once.
    """

    def __init__(
        self,
        workers: int,
        config: SupervisorConfig | None = None,
        telemetry=None,
        metrics=None,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.config = config or SupervisorConfig()
        retry = self.config.retry
        if retry is None:
            from ..simulate.faults import RetryPolicy

            retry = RetryPolicy()
        self._retry = retry
        self._telemetry = telemetry
        self._metrics = metrics if metrics is not None else (
            telemetry.metrics if telemetry is not None else None
        )
        self._ctx = mp.get_context(START_METHOD)
        self._slots = [_Slot() for _ in range(workers)]
        self._respawns_used = 0
        self._closed = False
        for slot_id in range(workers):
            self._spawn(slot_id)

    # -- worker lifecycle --------------------------------------------------------

    def _spawn(self, slot_id: int) -> None:
        slot = self._slots[slot_id]
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_worker_main,
            args=(child_conn,),
            name=f"repro-worker-{slot_id}",
            daemon=True,
        )
        proc.start()
        child_conn.close()
        slot.proc = proc
        slot.conn = parent_conn
        slot.dead = False
        slot.stalled = False
        slot.spoken = False
        slot.last_seen = time.monotonic()

    @property
    def workers(self) -> int:
        return len(self._slots)

    @property
    def pids(self) -> list[int]:
        """Current worker pids, in slot order (0 for dead slots)."""
        return [
            (slot.proc.pid or 0) if slot.proc is not None else 0
            for slot in self._slots
        ]

    def live_slots(self) -> list[int]:
        return [i for i, slot in enumerate(self._slots) if not slot.dead]

    def __enter__(self) -> "Supervisor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Stop all workers (idempotent)."""
        self._closed = True
        for slot in self._slots:
            if slot.conn is not None:
                try:
                    slot.conn.send(("stop",))
                except (BrokenPipeError, OSError):
                    pass
        for slot in self._slots:
            if slot.proc is not None:
                slot.proc.join(timeout=5)
                if slot.proc.is_alive():  # pragma: no cover - stuck worker
                    slot.proc.terminate()
                    slot.proc.join(timeout=5)
                slot.proc = None
            if slot.conn is not None:
                slot.conn.close()
                slot.conn = None
            slot.dead = True

    # -- the strict surface -------------------------------------------------------

    def map(
        self,
        fn: Callable,
        payloads: Sequence,
        on_frame: Callable[[int, dict], None] | None = None,
        stream_interval_s: float | None = None,
    ) -> list:
        """Results in payload order: recover first, raise
        :class:`TaskFailed` only if a task (not a worker) is beyond saving."""
        return self.run(
            fn, payloads, on_frame=on_frame, stream_interval_s=stream_interval_s
        ).raise_on_failure()

    # -- the supervised run --------------------------------------------------------

    def run(
        self,
        fn: Callable,
        payloads: Sequence,
        on_frame: Callable[[int, dict], None] | None = None,
        stream_interval_s: float | None = None,
        on_result: Callable[[int, object], None] | None = None,
        inject_kill: Sequence[int] = (),
    ) -> SupervisionReport:
        """Run ``fn`` over ``payloads`` under supervision.

        ``on_result(index, value)`` fires as each task *completes* (in
        completion order — checkpoint journals use it to persist results
        crash-safely as they land).  ``inject_kill`` lists task indices
        whose assigned worker SIGKILLs itself right before running them,
        once each — the fault-injection hook for tests and CI.
        """
        if on_frame is not None and stream_interval_s is None:
            from ..obs.stream import DEFAULT_STREAM_INTERVAL_S

            stream_interval_s = DEFAULT_STREAM_INTERVAL_S
        return self._execute(
            fn,
            payloads,
            inject_kill,
            interval=(
                stream_interval_s
                if on_frame is not None
                else self.config.heartbeat_interval_s
            ),
            on_frame=on_frame,
            on_result=on_result,
        )

    def race(
        self,
        fn: Callable,
        payloads: Sequence,
        accept: Callable[[SupervisionReport], bool],
        deadline_s: float | None = None,
        inject_kill: Sequence[int] = (),
    ) -> SupervisionReport:
        """Race ``payloads`` in priority order (index 0 is best).

        At most one payload runs per worker, and the next unstarted
        payload starts on the first worker that goes idle — no static
        sharding.  ``accept(report)`` is consulted each time a payload
        settles (result, failure, or quarantine); the race stops when it
        returns true, when every payload has settled, or ``deadline_s``
        seconds after the call.  Stopping SIGKILLs the workers still
        running a payload (they are respawned lazily, by the next call)
        and lists every unsettled payload in ``report.cancelled``.
        Crashed payloads get the same retry, poison quarantine and
        respawn treatment as in :meth:`run`.
        """
        return self._execute(
            fn,
            payloads,
            inject_kill,
            interval=self.config.heartbeat_interval_s,
            accept=accept,
            deadline=None if deadline_s is None else time.monotonic() + deadline_s,
        )

    def _execute(
        self, fn: Callable, payloads: Sequence, inject_kill: Sequence[int], **options
    ) -> SupervisionReport:
        if self._closed:
            raise RuntimeError("supervisor is closed")
        payload_list = list(payloads)
        report = SupervisionReport(values=[None] * len(payload_list))
        if not payload_list:
            return report
        for slot_id, slot in enumerate(self._slots):
            if slot.proc is None and not slot.dead:
                self._spawn(slot_id)  # killed as a race loser
        state = _RunState(self, fn, payload_list, report, set(inject_kill), **options)
        state.dispatch_initial()
        state.loop()
        return report

    # -- shared bookkeeping (used by _RunState) -----------------------------------

    def _inc(self, counter: str, n: int = 1) -> None:
        if self._metrics is not None:
            self._metrics.inc(counter, n)

    def _respawn_budget_left(self) -> bool:
        return self._respawns_used < self.config.max_respawns

    def _take_respawn(self) -> None:
        self._respawns_used += 1


class _RunState:
    """The per-``run()``/``race()`` recovery state machine.

    Kept separate from :class:`Supervisor` so a supervisor reused across
    batches (the controller) never leaks one run's task bookkeeping into
    the next.  With ``accept`` set it runs a race: ``pending`` holds the
    unstarted task indices in priority order, handed out one per idle
    worker.
    """

    def __init__(
        self,
        supervisor: Supervisor,
        fn,
        payloads: list,
        report: SupervisionReport,
        kill_pending: set[int],
        interval: float | None,
        on_frame=None,
        on_result=None,
        accept=None,
        deadline: float | None = None,
    ):
        self.sup = supervisor
        self.fn = fn
        self.payloads = payloads
        self.report = report
        self.on_frame = on_frame
        self.on_result = on_result
        self.interval = interval
        self.kill_pending = kill_pending
        self.accept = accept
        self.deadline = deadline
        self.pending = list(range(len(payloads))) if accept is not None else None
        self.stopped = False
        self.attempts: dict[int, int] = {}
        self.kills: dict[int, int] = {}
        self.stall_after = (interval or 0.0) * STALL_INTERVALS
        self.kill_after = (interval or 0.0) * supervisor.config.stall_kill_intervals

    # -- labels/frames -------------------------------------------------------------

    def _label(self, index: int) -> str:
        from ..obs.stream import task_label

        return task_label(self.payloads[index])

    def _frame(self, kind: str, slot_id: int, **extra) -> None:
        if self.on_frame is None:
            return
        slot = self.sup._slots[slot_id]
        pid = (slot.proc.pid or 0) if slot.proc is not None else 0
        self.on_frame(slot_id, _synth_frame(kind, pid, **extra))

    # -- dispatch -------------------------------------------------------------------

    def dispatch_initial(self) -> None:
        live = self.sup.live_slots()
        if not live:
            self._run_inprocess(list(range(len(self.payloads))))
            return
        if self.pending is not None:
            return  # a race: the loop hands payloads to idle workers
        shards: dict[int, list[int]] = {}
        width = self.sup.workers
        for index in range(len(self.payloads)):
            slot_id = index % width
            if self.sup._slots[slot_id].dead:
                slot_id = live[index % len(live)]
            shards.setdefault(slot_id, []).append(index)
        for slot_id, indices in sorted(shards.items()):
            self._send(slot_id, indices)

    def _send(self, slot_id: int, indices: list[int]) -> None:
        if not indices:
            return
        slot = self.sup._slots[slot_id]
        shard = [(i, self.payloads[i]) for i in indices]
        kills_here = sorted(self.kill_pending.intersection(indices))
        self.kill_pending.difference_update(kills_here)
        for i in indices:
            self.attempts[i] = self.attempts.get(i, 0) + 1
        try:
            slot.conn.send(("run_each", self.fn, shard, self.interval, kills_here))
        except (BrokenPipeError, OSError):
            # The worker died between batches; the death path requeues.
            slot.queued.extend(indices)
            self._handle_death(slot_id)
            return
        slot.queued.extend(indices)
        slot.last_seen = time.monotonic()

    def _fill_idle(self) -> None:
        """Race: start the best unstarted payloads on idle workers."""
        for slot_id in self.sup.live_slots():
            if self.pending and not self.sup._slots[slot_id].queued:
                self._send(slot_id, [self.pending.pop(0)])

    def _check_accept(self) -> None:
        if self.accept is not None and not self.stopped and self.accept(self.report):
            self._stop()

    def _stop(self) -> None:
        """Race: kill workers still running a payload, cancel the rest."""
        self.stopped = True
        self.pending = []
        for slot in self.sup._slots:
            if slot.queued and slot.proc is not None:
                slot.proc.kill()
                slot.proc.join()
                slot.conn.close()
                slot.proc = slot.conn = None
            slot.queued = []
        self.report.cancelled = [
            i for i in range(len(self.payloads)) if not self.report.settled(i)
        ]

    # -- completion bookkeeping ------------------------------------------------------

    def _settled(self) -> int:
        return (
            sum(1 for v in self.report.values if v is not None)
            + len(self.report.failures)
            + len(self.report.quarantined)
        )

    def _record_result(self, index: int, ok: bool, value, remote_tb) -> None:
        if ok:
            self.report.values[index] = value
            if self.on_result is not None:
                self.on_result(index, value)
        else:
            self.report.failures[index] = (value, remote_tb)
        self._check_accept()

    def _quarantine(self, index: int, reason: str) -> None:
        entry = TaskQuarantined(
            index=index,
            label=self._label(index),
            attempts=self.attempts.get(index, 0),
            workers_killed=self.kills.get(index, 0),
            reason=reason,
        )
        self.report.quarantined.append(entry)
        self.report.stats.quarantined += 1
        self.sup._inc("pool.task.quarantined")
        self._frame("task_quarantined", 0, task=index, label=entry.label)
        self._check_accept()

    # -- the event loop ----------------------------------------------------------------

    def loop(self) -> None:
        total = len(self.payloads)
        while self._settled() < total and not self.stopped:
            if self.pending:
                self._fill_idle()
            busy = [
                slot_id
                for slot_id, slot in enumerate(self.sup._slots)
                if slot.queued and not slot.dead
            ]
            if not busy:
                # Nothing in flight but tasks unsettled: every owner died
                # without a live successor — run the remainder here.
                self._run_inprocess(
                    [i for i in range(total) if not self.report.settled(i)]
                )
                return
            waitables: dict[object, tuple[str, int]] = {}
            for slot_id in busy:
                slot = self.sup._slots[slot_id]
                waitables[slot.conn] = ("conn", slot_id)
                waitables[slot.proc.sentinel] = ("sentinel", slot_id)
            timeout = self.interval or None
            if self.deadline is not None:
                left = self.deadline - time.monotonic()
                if left <= 0:
                    self._stop()
                    return
                timeout = left if timeout is None else min(timeout, left)
            ready = mp_connection.wait(list(waitables), timeout=timeout)
            self._check_stalls(busy, ready or ())
            handled_death: set[int] = set()
            for obj in ready or ():
                kind, slot_id = waitables[obj]
                if slot_id in handled_death or self.stopped:
                    continue
                slot = self.sup._slots[slot_id]
                if kind == "sentinel" or slot.conn is not obj:
                    # The process died; drain results that raced ahead of
                    # the death, then recover.
                    if self._drain_then_die(slot_id):
                        handled_death.add(slot_id)
                    continue
                try:
                    message = slot.conn.recv()
                except (EOFError, ConnectionResetError, OSError):
                    self._handle_death(slot_id)
                    handled_death.add(slot_id)
                    continue
                self._on_message(slot_id, message)

    def _check_stalls(self, busy: list[int], ready) -> None:
        if not self.interval:
            return
        now = time.monotonic()
        ready_set = set(ready)
        for slot_id in busy:
            slot = self.sup._slots[slot_id]
            if slot.conn in ready_set or slot.proc.sentinel in ready_set:
                continue
            if not slot.stalled:
                # First strike happens STALL_INTERVALS periods after the
                # last real message; further strikes once per period.
                if now - slot.last_seen < self.stall_after:
                    continue
                slot.stalled = True
                slot.stall_since = slot.last_seen
                slot.last_seen = now
                self._frame("heartbeat_missed", slot_id)
                continue
            if now - slot.last_seen >= self.interval:
                slot.last_seen = now
                self._frame("heartbeat_missed", slot_id)
            if (
                slot.spoken  # startup grace: never kill a worker still importing
                and self.kill_after > self.stall_after
                and now - slot.stall_since >= self.kill_after
            ):
                # Escalate: the stall budget is spent — kill and let the
                # death path respawn and requeue.
                self.report.stats.stall_kills += 1
                self.sup._inc("pool.worker.stall_killed")
                slot.proc.kill()
                slot.stall_since = now  # one kill per budget, not per tick

    def _on_message(self, slot_id: int, message) -> None:
        slot = self.sup._slots[slot_id]
        slot.last_seen = time.monotonic()
        slot.spoken = True
        if slot.stalled:
            slot.stalled = False
            self._frame("heartbeat_recovered", slot_id)
        tag = message[0]
        if tag == "frame":
            if self.on_frame is not None:
                self.on_frame(slot_id, message[1])
            return
        if tag == "result":
            index, ok, value, remote_tb = message[1]
            if index in slot.queued:
                slot.queued.remove(index)
            self._record_result(index, ok, value, remote_tb)
            return
        # "done": shard-end marker; per-task results already accounted.

    def _drain_then_die(self, slot_id: int) -> bool:
        """Drain raced messages off a dead worker's pipe, then recover.

        Returns True when the worker was in fact dead (always, today —
        the sentinel fired), so callers skip further events for it.
        """
        slot = self.sup._slots[slot_id]
        try:
            while slot.conn is not None and slot.conn.poll():
                self._on_message(slot_id, slot.conn.recv())
        except (EOFError, ConnectionResetError, OSError):
            pass
        self._handle_death(slot_id)
        return True

    # -- death, retry, quarantine, respawn ---------------------------------------------

    def _handle_death(self, slot_id: int) -> None:
        sup = self.sup
        slot = sup._slots[slot_id]
        if slot.proc is not None:
            slot.proc.join(timeout=5)
        if slot.conn is not None:
            slot.conn.close()
        slot.conn = None
        slot.proc = None
        remaining = slot.queued
        slot.queued = []

        if remaining:
            # The head of the queue is the task the worker died on (the
            # eager protocol reports results in run order).  Charge it.
            head = remaining.pop(0)
            self.kills[head] = self.kills.get(head, 0) + 1
            retry = sup._retry
            if self.kills[head] >= sup.config.poison_kills:
                self._quarantine(
                    head,
                    f"poison: killed {self.kills[head]} consecutive workers",
                )
            elif self.attempts.get(head, 0) >= retry.max_attempts:
                self._quarantine(
                    head,
                    f"retry budget exhausted after {self.attempts[head]} attempts",
                )
            else:
                self.report.stats.retries += 1
                self.report.stats.backoff_s += retry.backoff_s(
                    self.attempts.get(head, 1)
                )
                sup._inc("pool.task.retried")
                self._frame(
                    "task_retried", slot_id, task=head, label=self._label(head)
                )
                remaining.insert(0, head)

        if self.stopped:
            return  # the race is over; the slot respawns on the next call
        if self.pending is not None:
            # Race: requeued payloads wait their turn by priority; the
            # loop hands them to the next idle worker.
            self.pending = sorted(self.pending + remaining)
            remaining = []
        if sup._respawn_budget_left():
            sup._take_respawn()
            telemetry = sup._telemetry
            if telemetry is not None:
                with telemetry.span(
                    "supervise.respawn", worker=slot_id, requeued=len(remaining)
                ):
                    respawned = self._try_spawn(slot_id)
            else:
                respawned = self._try_spawn(slot_id)
            if respawned:
                self.report.stats.respawns += 1
                sup._inc("pool.worker.respawned")
                self._frame(
                    "worker_respawned",
                    slot_id,
                    worker=slot_id,
                    respawns=self.report.stats.respawns,
                )
                self._send(slot_id, remaining)
                return
        # No respawn: this slot is permanently dead.
        slot.dead = True
        survivors = [
            s
            for s in sup.live_slots()
            if sup._slots[s].proc is not None and sup._slots[s].proc.is_alive()
        ]
        if survivors:
            # Requeue onto survivors, preserving run order round-robin.
            per_slot: dict[int, list[int]] = {}
            for pos, index in enumerate(remaining):
                target = survivors[pos % len(survivors)]
                per_slot.setdefault(target, []).append(index)
            for target, indices in sorted(per_slot.items()):
                self._send(target, indices)
        else:
            self._run_inprocess(remaining)

    def _try_spawn(self, slot_id: int) -> bool:
        try:
            self.sup._spawn(slot_id)
            return True
        except OSError:  # pragma: no cover - fork/pipe exhaustion
            return False

    def _run_inprocess(self, indices: list[int]) -> None:
        """Last-resort serial fallback in the coordinator process.

        ``--workers N`` must never be less reliable than ``--workers 1``:
        with every worker gone and no respawn budget, the remaining tasks
        run here — except tasks that already killed a worker, which are
        quarantined rather than risked inside the coordinator.
        """
        for index in indices:
            if self.stopped:
                return
            if self.kills.get(index, 0) > 0:
                self._quarantine(
                    index, "killed a worker; refusing in-process retry"
                )
                continue
            self.attempts[index] = self.attempts.get(index, 0) + 1
            ok, value, remote_tb = _run_one(self.fn, self.payloads[index])
            self.report.stats.inprocess += 1
            self.sup._inc("pool.task.inprocess")
            self._record_result(index, ok, value, remote_tb)
