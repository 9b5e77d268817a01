"""Supervisor behavior: sharding, death detection, respawn, retry,
quarantine, fallback, and the priority race.

These tests spawn real worker processes and really SIGKILL them, so the
module is marked slow like the rest of the parallel suite.  Task
functions live at module level (spawn workers import this module by
name), which doubles as a check that the test package itself is
importable from a cold worker process — exactly what real task
functions must guarantee.
"""

import os
import signal
import time

import pytest

from repro.obs import Telemetry
from repro.parallel import (
    Supervisor,
    SupervisorConfig,
    TaskFailed,
    TaskQuarantined,
    resolve_workers,
)
from repro.simulate import RetryPolicy

pytestmark = pytest.mark.slow  # spawns real worker processes


def square(x):
    return x * x


def die_on_three(x):
    """Poison task: kills every worker it lands on."""
    if x == 3:
        os.kill(os.getpid(), signal.SIGKILL)
    return x * 10


def boom_on_odd(x):
    if x % 2:
        raise ValueError(f"odd input {x}")
    return x


def stop_once(payload):
    """SIGSTOP this worker the first time; a retry completes normally."""
    path, value = payload
    if not os.path.exists(path):
        open(path, "w").close()
        os.kill(os.getpid(), signal.SIGSTOP)
    return value


def slow_echo(x):
    time.sleep(0.05)
    return x


def whoami(x):
    return (x, os.getpid())


def sleep_then(payload):
    """Sleep, then report (value, worker pid, wall-clock finish time)."""
    seconds, value = payload
    time.sleep(seconds)
    return (value, os.getpid(), time.time())


def pid_then_sleep(payload):
    """Record this worker's pid in a file, then sleep."""
    path, seconds = payload
    with open(path, "w") as fh:
        fh.write(str(os.getpid()))
    time.sleep(seconds)
    return seconds


def die_on_zero(x):
    if x == 0:
        os.kill(os.getpid(), signal.SIGKILL)
    return x


def best_first(report):
    """Accept the best settled result once every better payload failed."""
    for index, value in enumerate(report.values):
        if not report.settled(index):
            return False
        if value is not None:
            return True
    return False


class TestResolveWorkers:
    def test_serial_requests_stay_serial(self):
        assert resolve_workers(None, 10) == 1
        assert resolve_workers(1, 10) == 1
        assert resolve_workers(0, 10) == 1
        assert resolve_workers(-3, 10) == 1

    def test_clamped_to_task_count(self):
        assert resolve_workers(8, 3) == 3
        assert resolve_workers(2, 3) == 2


class TestHealthyRuns:
    def test_run_returns_values_in_task_order(self):
        with Supervisor(3) as sup:
            report = sup.run(square, list(range(10)))
        assert report.ok
        assert report.values == [i * i for i in range(10)]
        assert report.stats.respawns == 0 and report.stats.retries == 0

    def test_map_matches_pool_contract(self):
        with Supervisor(2) as sup:
            assert sup.map(square, [3, 4, 5]) == [9, 16, 25]

    def test_task_exceptions_raise_with_all_indices(self):
        with Supervisor(2) as sup:
            with pytest.raises(TaskFailed) as err:
                sup.map(boom_on_odd, list(range(6)))
        assert err.value.index == 1
        assert err.value.indices == [1, 3, 5]
        assert set(err.value.failures) == {1, 3, 5}
        assert "odd input 3" in str(err.value)

    def test_empty_payloads(self):
        with Supervisor(2) as sup:
            assert sup.run(square, []).values == []

    def test_deterministic_sharding(self):
        """Task i runs on worker i % W — the same worker pid every run."""
        with Supervisor(2) as sup:
            first = sup.map(whoami, list(range(6)))
            second = sup.map(whoami, list(range(6)))
        assert len({pid for _, pid in first}) == 2
        assert first == second
        by_worker = {}
        for i, pid in first:
            by_worker.setdefault(i % 2, set()).add(pid)
        assert all(len(pids) == 1 for pids in by_worker.values())

    def test_task_failure_carries_remote_traceback(self):
        with Supervisor(2) as sup:
            with pytest.raises(TaskFailed) as err:
                sup.map(boom_on_odd, [0, 2, 3, 5])
            assert err.value.index == 2
            assert "remote traceback" in str(err.value)
            assert "ValueError" in err.value.remote_traceback
            # a task failure is not a worker failure
            assert sup.map(square, [4]) == [16]
            assert sup.run(square, [1]).stats.respawns == 0


class TestKillAndRespawn:
    def test_injected_kill_respawns_and_retries(self):
        telemetry = Telemetry()
        with Supervisor(4, telemetry=telemetry) as sup:
            report = sup.run(square, list(range(12)), inject_kill={5})
        assert report.ok
        assert report.values == [i * i for i in range(12)]
        assert report.stats.respawns == 1
        assert report.stats.retries == 1
        assert report.stats.backoff_s > 0  # accounted, never slept
        assert telemetry.metrics.counter("pool.worker.respawned").value == 1
        assert telemetry.metrics.counter("pool.task.retried").value == 1

    def test_recovery_emits_respawn_and_retry_frames(self):
        frames = []
        with Supervisor(2) as sup:
            report = sup.run(
                square, list(range(6)), inject_kill={2},
                on_frame=lambda wid, f: frames.append(f),
                stream_interval_s=0.05,
            )
        assert report.ok
        kinds = {f["kind"] for f in frames}
        assert "worker_respawned" in kinds
        assert "task_retried" in kinds

    def test_workers_survive_for_later_runs(self):
        with Supervisor(2) as sup:
            first = sup.run(square, list(range(4)), inject_kill={1})
            second = sup.run(square, list(range(4)))
        assert first.ok and second.ok
        assert second.stats.respawns == 0

    def test_multiple_kills_across_workers(self):
        with Supervisor(4) as sup:
            report = sup.run(square, list(range(16)), inject_kill={2, 5, 11})
        assert report.ok
        assert report.values == [i * i for i in range(16)]
        assert report.stats.respawns == 3
        assert report.stats.retries == 3


class TestQuarantine:
    def test_poison_task_is_quarantined_not_fatal(self):
        telemetry = Telemetry()
        with Supervisor(2, telemetry=telemetry) as sup:
            report = sup.run(die_on_three, list(range(6)))
        assert report.values[3] is None
        assert [report.values[i] for i in (0, 1, 2, 4, 5)] == [0, 10, 20, 40, 50]
        assert len(report.quarantined) == 1
        q = report.quarantined[0]
        assert isinstance(q, TaskQuarantined)
        assert q.index == 3
        assert q.workers_killed == 2  # the default poison threshold
        assert "poison" in q.reason
        assert telemetry.metrics.counter("pool.task.quarantined").value == 1

    def test_map_raises_on_quarantine(self):
        with Supervisor(2) as sup:
            with pytest.raises(TaskFailed) as err:
                sup.map(die_on_three, list(range(6)))
        assert err.value.index == 3
        assert "quarantined" in str(err.value)

    def test_retry_budget_exhaustion_quarantines(self):
        config = SupervisorConfig(
            retry=RetryPolicy(max_attempts=1), poison_kills=99
        )
        with Supervisor(2, config=config) as sup:
            report = sup.run(die_on_three, list(range(6)))
        assert len(report.quarantined) == 1
        assert "retry budget exhausted" in report.quarantined[0].reason


class TestGracefulDegradation:
    def test_in_process_fallback_when_respawn_budget_spent(self):
        config = SupervisorConfig(max_respawns=0)
        with Supervisor(1, config=config) as sup:
            report = sup.run(die_on_three, list(range(6)))
        # The killer task is quarantined (never risked in-process); the
        # rest of the shard completes serially in the coordinator.
        assert report.stats.respawns == 0
        assert report.stats.inprocess >= 1
        assert len(report.quarantined) == 1
        assert report.quarantined[0].index == 3
        assert "refusing in-process retry" in report.quarantined[0].reason
        assert [report.values[i] for i in (0, 1, 2, 4, 5)] == [0, 10, 20, 40, 50]

    def test_survivors_absorb_a_dead_slot(self):
        config = SupervisorConfig(max_respawns=0)
        with Supervisor(3, config=config) as sup:
            report = sup.run(square, list(range(9)), inject_kill={4})
            # Slot 1 died and cannot respawn; workers 0 and 2 absorb its
            # remaining tasks, so everything still completes correctly.
            assert len(sup.live_slots()) == 2
        assert report.values == [i * i for i in range(9)]
        assert report.stats.respawns == 0

    def test_workers_n_never_less_reliable_than_serial(self):
        # Same poison workload, any worker count: the run completes and
        # quarantines exactly the poison task.
        for workers in (1, 2, 4):
            with Supervisor(workers) as sup:
                report = sup.run(die_on_three, list(range(6)))
            assert [report.values[i] for i in (0, 1, 2, 4, 5)] == [
                0, 10, 20, 40, 50,
            ], f"workers={workers}"
            assert {q.index for q in report.quarantined} == {3}


class TestStallEscalation:
    def test_frozen_worker_is_killed_and_task_retried(self, tmp_path):
        frames = []
        config = SupervisorConfig(stall_kill_intervals=8)
        flag = str(tmp_path / "stopped-once")
        with Supervisor(2, config=config) as sup:
            report = sup.run(
                stop_once,
                [(flag, i) for i in range(4)],
                on_frame=lambda wid, f: frames.append(f),
                stream_interval_s=0.05,
            )
        # One worker froze (SIGSTOP), was flagged, then killed past the
        # stall budget; the retry ran clean because the flag file exists.
        assert report.ok
        assert report.values == [0, 1, 2, 3]
        assert report.stats.stall_kills >= 1
        assert report.stats.respawns >= 1
        kinds = [f["kind"] for f in frames]
        assert "heartbeat_missed" in kinds
        assert "worker_respawned" in kinds


class TestLifecycle:
    def test_closed_supervisor_refuses_runs(self):
        sup = Supervisor(2)
        sup.close()
        with pytest.raises(RuntimeError):
            sup.run(square, [1])

    def test_close_is_idempotent(self):
        sup = Supervisor(2)
        sup.close()
        sup.close()

    def test_pids_track_slots(self):
        with Supervisor(2) as sup:
            pids = sup.pids
            assert len(pids) == 2 and all(p > 0 for p in pids)

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            Supervisor(0)


class TestRace:
    def test_lower_priority_result_waits_for_the_better_payload(self):
        seen = []

        def accept(report):
            seen.append(list(report.values))
            return best_first(report)

        with Supervisor(2) as sup:
            report = sup.race(sleep_then, [(1.0, "best"), (0.0, "worse")], accept)
        assert report.values[0][0] == "best"
        assert report.cancelled == []
        # "worse" settled first and was not accepted on its own.
        assert seen[0][0] is None and seen[0][1][0] == "worse"

    def test_running_loser_is_killed_at_acceptance(self, tmp_path):
        loser = tmp_path / "loser.pid"
        t0 = time.monotonic()
        with Supervisor(2) as sup:
            report = sup.race(
                pid_then_sleep,
                [(str(tmp_path / "winner.pid"), 1.0), (str(loser), 30.0)],
                best_first,
            )
            assert report.values[0] == 1.0
            assert report.cancelled == [1]
        assert time.monotonic() - t0 < 5.0
        with pytest.raises(ProcessLookupError):
            os.kill(int(loser.read_text()), 0)

    def test_killed_loser_slot_serves_the_next_call(self):
        with Supervisor(2) as sup:
            first = sup.race(sleep_then, [(0.0, "a"), (30.0, "b")], best_first)
            assert first.cancelled == [1]
            assert sup.map(square, [1, 2, 3, 4]) == [1, 4, 9, 16]
            assert all(pid > 0 for pid in sup.pids)

    def test_deadline_cancels_everything_in_flight(self):
        with Supervisor(2) as sup:
            t0 = time.monotonic()
            report = sup.race(
                sleep_then, [(30.0, 0), (30.0, 1), (30.0, 2)], best_first,
                deadline_s=0.5,
            )
        assert time.monotonic() - t0 < 5.0  # in-flight workers were killed
        assert report.cancelled == [0, 1, 2]
        assert report.values == [None, None, None]

    def test_poison_payload_is_quarantined_and_next_result_wins(self):
        telemetry = Telemetry()
        with Supervisor(2, telemetry=telemetry) as sup:
            report = sup.race(die_on_zero, [0, 1, 2], best_first)
        assert [q.index for q in report.quarantined] == [0]
        assert report.quarantined[0].workers_killed == 2
        assert report.values[1] == 1
        assert telemetry.metrics.counter("pool.task.retried").value == 1
        assert telemetry.metrics.counter("pool.task.quarantined").value == 1

    def test_next_payload_starts_on_the_first_idle_worker(self):
        with Supervisor(2) as sup:
            report = sup.race(
                sleep_then,
                [(2.0, "slow"), (0.0, "fast"), (0.0, "third")],
                lambda report: False,
            )
        slow, fast, third = report.values
        # Not queued behind the busy worker (static sharding would put
        # payload 2 on worker 0, after the slow one).
        assert third[1] == fast[1] != slow[1]
        assert third[2] < slow[2]
