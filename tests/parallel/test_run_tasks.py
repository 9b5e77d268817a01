"""``run_tasks``: one batch fan-out, inline or supervised, same contract.

A toy core squares its task's ``seed`` (so ``task_label`` renders it as
``seed=N``) and counts its calls in the telemetry it is handed.  Each
test runs the same batch inline and on two workers and compares.
"""

from dataclasses import dataclass

import pytest

from repro.obs import Telemetry
from repro.parallel import TaskFailed, run_tasks

pytestmark = pytest.mark.slow  # spawns real worker processes


@dataclass(frozen=True)
class ToyTask:
    seed: int


@dataclass(frozen=True)
class ToyResult:
    square: int


def toy_core(task, *, telemetry=None, compile_cache=None):
    if task.seed < 0:
        raise ValueError(f"negative input {task.seed}")
    if telemetry is not None:
        telemetry.metrics.inc("toy.calls")
    return ToyResult(square=task.seed * task.seed)


TASKS = [ToyTask(seed) for seed in (3, 1, 4, 1, 5)]


def run(workers, tasks=TASKS, **kwargs):
    return run_tasks(toy_core, tasks, workers=workers, span="toy.fanout", **kwargs)


def task_frames(workers):
    frames = []
    run(workers, on_frame=lambda _worker, frame: frames.append(frame))
    return [
        (f["kind"], f["task"], f["label"])
        for f in frames
        if f["kind"] in ("task_start", "task_end")
    ]


class TestInlineMatchesSupervised:
    def test_values_equal(self):
        inline = [r.square for r in run(1).values]
        fanned = [r.square for r in run(2).values]
        assert inline == fanned == [9, 1, 16, 1, 25]

    def test_one_start_and_one_end_frame_per_task(self):
        inline = task_frames(1)
        fanned = task_frames(2)
        for frames in (inline, fanned):
            for kind in ("task_start", "task_end"):
                assert sorted(t for k, t, _ in frames if k == kind) == list(range(len(TASKS)))
        assert sorted(inline) == sorted(fanned)
        assert ("task_start", 2, "seed=4") in inline

    def test_on_result_fires_once_per_index(self):
        for workers in (1, 2):
            landed = []
            run(workers, on_result=lambda index, value: landed.append((index, value.square)))
            assert sorted(landed) == [(0, 9), (1, 1), (2, 16), (3, 1), (4, 25)]

    def test_metrics_land_in_the_callers_telemetry(self):
        for workers in (1, 2):
            telemetry = Telemetry()
            run(workers, telemetry=telemetry)
            assert telemetry.metrics.counter("toy.calls").value == len(TASKS)


class TestDomainOnlyTasks:
    """Tasks and results carry domain fields only; the wrapper carries the rest."""

    def test_supervised_with_telemetry_equals_inline(self):
        inline, fanned = Telemetry(), Telemetry()
        inline_values = [r.square for r in run(1, telemetry=inline).values]
        fanned_values = [r.square for r in run(2, telemetry=fanned).values]
        assert fanned_values == inline_values == [9, 1, 16, 1, 25]
        assert (
            fanned.metrics.counter("toy.calls").value
            == inline.metrics.counter("toy.calls").value
            == len(TASKS)
        )
        # Worker spans would stitch under the dispatch span; the toy core
        # records none, so only the counters come home.
        assert any(sp.name == "toy.fanout" for sp in fanned.spans.spans)


class TestFailures:
    FAILING = [ToyTask(1), ToyTask(-2), ToyTask(3), ToyTask(-4)]

    def test_inline_reraises_the_original_exception(self):
        with pytest.raises(ValueError, match="negative input -2"):
            run(1, tasks=self.FAILING)

    def test_supervised_raises_task_failed_with_every_index(self):
        with pytest.raises(TaskFailed) as err:
            run(2, tasks=self.FAILING)
        assert err.value.indices == [1, 3]
        assert "negative input -4" in str(err.value)
