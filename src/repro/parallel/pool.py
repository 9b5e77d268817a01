"""The worker side of :class:`~repro.parallel.Supervisor`.

Workers are started with the ``spawn`` method unconditionally — no
inherited state, no fork-only assumptions — so behavior is identical on
Linux, macOS, and Windows, and pickling bugs in task payloads show up
everywhere instead of only off-Linux.  Task functions must therefore be
module-level importables and payloads must survive pickling
(:func:`repro.parallel.check_picklable` diagnoses violations).
"""

from __future__ import annotations

import os
import signal
import traceback


def _run_one(fn, payload) -> tuple[bool, object, str | None]:
    """Run one task; never raises — failures come back as data."""
    try:
        return True, fn(payload), None
    except BaseException as exc:  # noqa: BLE001 - report, don't die
        return False, f"{type(exc).__name__}: {exc}", traceback.format_exc()


def _worker_main(conn) -> None:
    """Worker loop: receive a shard, run it, reply; repeat until ``stop``.

    A shard arrives as ``("run_each", fn, shard, interval, kill_before)``.
    Each task's result is sent eagerly as ``("result", (index, ok,
    value, remote_tb))``, so the coordinator knows exactly which tasks
    completed if this process dies mid-shard; an empty ``("done", [])``
    marks the shard's end.  ``kill_before`` is the fault-injection hook:
    the worker SIGKILLs *itself* immediately before running any task
    listed there (tests and the supervision-smoke CI job inject crashes
    this way).

    With a stream interval set, zero or more ``("frame", dict)`` messages
    precede the final ``("done", ...)`` — the heartbeat thread is joined
    before the done send, so no frame ever trails the shard.
    """
    try:
        while True:
            message = conn.recv()
            if message[0] == "stop":
                break
            _, fn, shard, interval_s, kill_before = message
            sender = None
            if interval_s is not None:
                from ..obs.stream import FrameSender

                sender = FrameSender(conn, interval_s, total=len(shard))
            for index, payload in shard:
                if index in kill_before:
                    if sender is not None:
                        sender.close()
                    os.kill(os.getpid(), signal.SIGKILL)
                if sender is not None:
                    sender.task_start(index, payload)
                ok, value, remote_tb = _run_one(fn, payload)
                if sender is not None:
                    sender.task_end(index, ok, value if ok else None)
                try:
                    conn.send(("result", (index, ok, value, remote_tb)))
                except (BrokenPipeError, EOFError, OSError):
                    raise
                except Exception as exc:  # unpicklable result value
                    conn.send(
                        (
                            "result",
                            (
                                index,
                                False,
                                f"result not picklable: {type(exc).__name__}: {exc}",
                                traceback.format_exc(),
                            ),
                        )
                    )
            if sender is not None:
                sender.close()
            conn.send(("done", []))
    except (EOFError, KeyboardInterrupt):  # parent went away / interrupt
        pass
    finally:
        conn.close()
