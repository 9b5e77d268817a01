"""Per-layer spans, recorded from outside the program.

A traced op runs with wrappers installed on the module and class
attributes the program's callers look up (``Planner.solve``,
``repro.planner.planner.regression_search``, ``Grounder.ground_all``
…), so nothing under ``src/`` changes.  Each wrapped call is a span.  A
span's *self* time is its duration minus the time its wrapped children
took.  Its *inclusive* time counts only the outermost call of each span
name, so a re-entrant call (``compile_delta`` falling back to
``compile``) is not counted twice.  The collector's pauses are timed
through :data:`gc.callbacks` while a traced op runs.
"""

from __future__ import annotations

import functools
import gc
import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """Span self/inclusive seconds, call counts and work counts."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.incl_s: defaultdict[str, float] = defaultdict(float)
        self.calls: defaultdict[str, int] = defaultdict(int)
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # [span name, seconds spent in wrapped children]
        self._depth: defaultdict[str, int] = defaultdict(int)
        self._gc_started: float | None = None

    def wrap(self, fn, name, on_result=None):
        """``fn``, timed as span ``name``.

        ``name`` may instead be a function of the calling span's name
        (``None`` at top level), for a call whose layer depends on its
        caller.  ``on_result(tracer, result, outermost)`` reads work
        counts off the value a call returns.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            span = name if isinstance(name, str) else name(stack[-1][0] if stack else None)
            frame = [span, 0.0]
            stack.append(frame)
            tracer._depth[span] += 1
            start = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = tracer.clock() - start
                stack.pop()
                tracer._depth[span] -= 1
                outermost = tracer._depth[span] == 0
                tracer.self_s[span] += elapsed - frame[1]
                if outermost:
                    tracer.incl_s[span] += elapsed
                tracer.calls[span] += 1
                if stack:
                    stack[-1][1] += elapsed
            if on_result is not None:
                on_result(tracer, result, outermost)
            return result

        return wrapper

    def on_gc(self, phase: str, info: dict) -> None:
        """A :data:`gc.callbacks` hook: collector pauses and gen-2 runs."""
        if phase == "start":
            self._gc_started = self.clock()
        elif self._gc_started is not None:
            self.counts["gc.pause_s"] += self.clock() - self._gc_started
            self._gc_started = None
            if info["generation"] == 2:
                self.counts["gc.gen2"] += 1


# -- work counters read off return values --------------------------------------


def _count_ground(tracer, actions, outermost):
    tracer.counts["compile.ground_actions"] += len(actions)


def _count_pruned(tracer, result, outermost):
    _kept, removed = result
    tracer.counts["compile.reach_pruned"] += len(removed)


def _count_rg(tracer, result, outermost):
    counts = tracer.counts
    counts["rg.nodes"] += result.nodes_created
    counts["rg.expanded"] += result.nodes_expanded
    counts["rg.replays"] += result.replay.replays
    counts["rg.actions_replayed"] += result.replay.actions_replayed


def _count_cache(tracer, problem, outermost):
    if outermost:  # compile_delta may answer through compile: one request
        tracer.counts["cache.requests"] += 1
        tracer.counts[f"cache.{problem.compile_source}"] += 1  # fresh / cache / delta


def _count_mode(tracer, outcome, outermost):
    tracer.counts["hierarchy.solves"] += 1
    if outcome.mode != "hierarchical":
        tracer.counts["hierarchy.fallbacks"] += 1


# A Planner.solve / Planner.compile that solve_hierarchical makes itself is
# the backbone solve / the union compile.  (The widened and flat fallback
# rungs also solve from there; hierarchy.fallback_ratio says when they ran.)
def _solve_span(parent):
    return "hierarchy.backbone" if parent == "hierarchy.solve" else "planner.solve"


def _compile_span(parent):
    return "hierarchy.union_compile" if parent == "hierarchy.solve" else "planner.compile"


FUNCTIONS = (
    # (module, function, span, counter)
    ("repro.compile.problem", "compile_problem", "compile.total", None),
    ("repro.compile.bounds", "compute_property_bounds", "compile.bounds", None),
    ("repro.compile.reachability", "logically_reachable", "compile.reach", None),
    ("repro.compile.reachability", "prune_unreachable_actions", "compile.reach", _count_pruned),
    ("repro.compile.delta", "patch_problem", "compile.delta", None),
    ("repro.planner.plrg", "build_plrg", "planner.plrg", None),
    ("repro.planner.rg", "regression_search", "planner.rg", _count_rg),
    ("repro.planner.executor", "execute_plan", "planner.validate", None),
    ("repro.planner.delta", "stitch_plan", "planner.stitch", None),
    ("repro.network.partition", "partition_transit_stub", "network.partition", None),
    ("repro.hierarchy.abstraction", "abstract_network", "hierarchy.abstract", None),
    ("repro.hierarchy.contracts", "abstracted_app", "hierarchy.abstract", None),
    ("repro.hierarchy.contracts", "derive_contracts", "hierarchy.contracts", None),
    ("repro.hierarchy.contracts", "build_domain_problem", "hierarchy.contracts", None),
    ("repro.parallel.workers", "run_domain_task", "hierarchy.domains", None),
    ("repro.hierarchy.stitch", "stitch_hierarchical", "hierarchy.stitch", None),
    ("repro.hierarchy.solve", "solve_hierarchical", "hierarchy.solve", _count_mode),
)

METHODS = (
    # (module, class, method, span, counter)
    ("repro.compile.grounding", "Grounder", "ground_all", "compile.ground", _count_ground),
    ("repro.compile.problem", "CompiledProblem", "fork", "compile.fork", None),
    ("repro.parallel.cache", "CompileCache", "compile", "cache.compile", _count_cache),
    ("repro.parallel.cache", "CompileCache", "compile_delta", "cache.compile", _count_cache),
    ("repro.planner.slrg", "SLRG", "query", "planner.slrg", None),
    ("repro.planner.planner", "Planner", "solve", _solve_span, None),
    ("repro.planner.planner", "Planner", "compile", _compile_span, None),
)


def layer_patches(tracer: Tracer) -> list[tuple[object, str, object, object]]:
    """``(owner, attribute, original, wrapper)`` for every layer boundary.

    A function is patched in its defining module and in every loaded
    ``repro`` module that imported it by name, because that binding is
    the one callers in that module look up.  Lazy ``from … import``
    statements inside functions read the defining module, which is
    patched too.
    """
    for module_name in {row[0] for row in FUNCTIONS + METHODS}:
        importlib.import_module(module_name)
    holders = [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]
    patches = []
    for module_name, func_name, span, counter in FUNCTIONS:
        original = getattr(sys.modules[module_name], func_name)
        wrapper = tracer.wrap(original, span, counter)
        for module in holders:
            for attr, value in list(vars(module).items()):
                if value is original:
                    patches.append((module, attr, original, wrapper))
    for module_name, class_name, method, span, counter in METHODS:
        cls = getattr(sys.modules[module_name], class_name)
        original = vars(cls)[method]
        patches.append((cls, method, original, tracer.wrap(original, span, counter)))
    return patches


@contextmanager
def tracing(tracer: Tracer, patches):
    """Install the wrappers and the GC hook for the duration of one op."""
    for owner, attr, _original, wrapper in patches:
        setattr(owner, attr, wrapper)
    gc.callbacks.append(tracer.on_gc)
    try:
        yield
    finally:
        gc.callbacks.remove(tracer.on_gc)
        for owner, attr, original, _wrapper in patches:
            setattr(owner, attr, original)


# -- the per-layer metrics -------------------------------------------------------


def _incl_ms(span):
    return lambda t, ops: t.incl_s[span] * 1e3 / ops


def _self_ms(span):
    return lambda t, ops: t.self_s[span] * 1e3 / ops


def _per_op(key):
    return lambda t, ops: t.counts[key] / ops


def _ratio(part, whole):
    return lambda t, ops: t.counts[part] / t.counts[whole] if t.counts[whole] else 0.0


PER_LAYER = {
    # name: (unit, better, value(tracer, traced ops)).  Times are busy ms
    # per traced op, counts are per traced op; a layer that did not run
    # on a workload reads 0.
    "compile.total.ms": ("ms", "lower", _incl_ms("compile.total")),
    "compile.bounds.ms": ("ms", "lower", _incl_ms("compile.bounds")),
    "compile.ground.ms": ("ms", "lower", _incl_ms("compile.ground")),
    "compile.reach.ms": ("ms", "lower", _incl_ms("compile.reach")),
    "compile.ground_actions": ("count", "lower", _per_op("compile.ground_actions")),
    "compile.reach_pruned": ("count", "higher", _per_op("compile.reach_pruned")),
    "compile.delta.ms": ("ms", "lower", _incl_ms("compile.delta")),
    "compile.fork.ms": ("ms", "lower", _incl_ms("compile.fork")),
    "cache.compile.ms": ("ms", "lower", _incl_ms("cache.compile")),
    "cache.hit_ratio": ("ratio", "higher", _ratio("cache.cache", "cache.requests")),
    "cache.delta_ratio": ("ratio", "higher", _ratio("cache.delta", "cache.requests")),
    "planner.plrg.ms": ("ms", "lower", _incl_ms("planner.plrg")),
    "planner.slrg.ms": ("ms", "lower", _self_ms("planner.slrg")),
    "planner.slrg.calls": ("count", "lower", lambda t, ops: t.calls["planner.slrg"] / ops),
    "planner.rg.ms": ("ms", "lower", _self_ms("planner.rg")),
    "planner.validate.ms": ("ms", "lower", _incl_ms("planner.validate")),
    "planner.stitch.ms": ("ms", "lower", _incl_ms("planner.stitch")),
    "planner.rg.nodes": ("count", "lower", _per_op("rg.nodes")),
    "planner.rg.expanded": ("count", "lower", _per_op("rg.expanded")),
    "planner.rg.expand_ratio": ("ratio", "higher", _ratio("rg.expanded", "rg.nodes")),
    "planner.rg.replays": ("count", "lower", _per_op("rg.replays")),
    "planner.rg.actions_replayed": ("count", "lower", _per_op("rg.actions_replayed")),
    "network.partition.ms": ("ms", "lower", _incl_ms("network.partition")),
    "hierarchy.abstract.ms": ("ms", "lower", _incl_ms("hierarchy.abstract")),
    "hierarchy.backbone.ms": ("ms", "lower", _incl_ms("hierarchy.backbone")),
    "hierarchy.contracts.ms": ("ms", "lower", _incl_ms("hierarchy.contracts")),
    "hierarchy.domains.ms": ("ms", "lower", _incl_ms("hierarchy.domains")),
    "hierarchy.union_compile.ms": ("ms", "lower", _incl_ms("hierarchy.union_compile")),
    "hierarchy.stitch.ms": ("ms", "lower", _incl_ms("hierarchy.stitch")),
    "hierarchy.fallback_ratio": (
        "ratio", "lower", _ratio("hierarchy.fallbacks", "hierarchy.solves"),
    ),
    "runtime.gc.pause_ms": ("ms", "lower", lambda t, ops: t.counts["gc.pause_s"] * 1e3 / ops),
    "runtime.gc.gen2": ("count", "lower", _per_op("gc.gen2")),
}
