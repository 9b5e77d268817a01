"""Guard: durations come from spans, so only a few files read the clock.

Every duration ``src/repro`` reports — ``PlannerStats`` phase times,
``compile_seconds``, ``analysis_seconds``, repair and simulation
``wall_ms``, rung times — is a span's duration (``repro.obs.timed`` or a
recorded span).  This test walks the source for direct calls to
``time.perf_counter``, ``time.monotonic`` and ``time.time`` under any
import spelling and pins the files that may make them.
"""

import ast
from pathlib import Path

import repro

CLOCKS = {"perf_counter", "monotonic", "time"}

ALLOWED = {
    # The one clock: span and timed() entry/exit stamps.
    "obs/span.py",
    # Deadlines hold absolute perf_counter targets and poll them.
    "planner/deadline.py",
    # The paired (epoch, perf_counter) anchor stitched spans re-base through.
    "obs/telemetry.py",
    # Search-trace event timestamps.
    "obs/trace.py",
    # The per-replay µs histogram; runs only with telemetry on, and a span
    # per replay would allocate once per child.
    "planner/rg.py",
    # Worker heartbeats and supervision timeouts.
    "parallel/supervisor.py",
    # Live-stream frame stamps.
    "obs/stream.py",
    # The live monitor's repaint throttle.
    "obs/live.py",
}


def _clock_calls(tree: ast.AST) -> int:
    """Calls to a ``time``-module clock in ``tree``, however imported."""
    modules: set[str] = set()  # names bound to the time module
    functions: set[str] = set()  # names bound to a clock function
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(a.asname or a.name for a in node.names if a.name == "time")
        elif isinstance(node, ast.ImportFrom) and node.module == "time":
            functions.update(a.asname or a.name for a in node.names if a.name in CLOCKS)
    calls = 0
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute):
            calls += (
                func.attr in CLOCKS
                and isinstance(func.value, ast.Name)
                and func.value.id in modules
            )
        elif isinstance(func, ast.Name):
            calls += func.id in functions
    return calls


def _clock_files(root: Path) -> set[str]:
    return {
        path.relative_to(root).as_posix()
        for path in root.rglob("*.py")
        if _clock_calls(ast.parse(path.read_text(), filename=str(path)))
    }


def test_only_allowlisted_files_read_the_clock():
    root = Path(repro.__file__).parent
    assert _clock_files(root) == ALLOWED


def test_detector_sees_every_import_spelling():
    sources = [
        "import time\ntime.perf_counter()",
        "import time as _time\n_time.monotonic()",
        "from time import time\ntime()",
        "from time import perf_counter as pc\npc()",
        "def f():\n    import time\n    return time.time()",
    ]
    for source in sources:
        assert _clock_calls(ast.parse(source)) == 1, source
    assert _clock_calls(ast.parse("import time\ntime.sleep(1)")) == 0
