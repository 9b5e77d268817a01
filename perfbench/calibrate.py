"""Host speed, measured next to every op, so latencies compare across runs.

The host's speed changes from one second to the next by up to a factor
of two (other tenants share its cores and caches), far more than the
25% a regression bound allows.  So the benchmark times a fixed,
program-independent kernel right before each op, and again after the
last one, and reports each op's time at a reference host speed:

    reported = measured * (REF_MS / kernel) ** SENSITIVITY

where ``kernel`` is the mean of the kernel's times just before and just
after the op.  The kernel allocates and hashes small objects, as the
planner does.  Ops slow down less than the kernel when the host slows,
by the power :data:`SENSITIVITY`, measured on all four workloads (see
``README.md``).  The kernel runs with the collector off, so it times the
host, not the program's garbage.
"""

from __future__ import annotations

import gc
import random
import time

REF_MS = 10.0
"""The kernel time that defines the reference host speed."""

SENSITIVITY = 0.85
"""How op time scales with kernel time as the host speed changes."""


class _Node:
    __slots__ = ("key", "cost", "parent")

    def __init__(self, key, cost, parent):
        self.key = key
        self.cost = cost
        self.parent = parent


def _kernel() -> int:
    """A seeded search-like loop: tuple and frozenset keys, a dict, small objects."""
    seen = {}
    frontier = [_Node(("s", 0), 0.0, None)]
    rng = random.Random(3)
    for i in range(5000):
        node = frontier[rng.randrange(len(frontier))]
        key = (node.key[0][-6:] + str(i % 7), i % 97, frozenset((i % 5, i % 11)))
        if key not in seen:
            child = _Node(key, node.cost + (i % 13) * 0.5, node)
            seen[key] = child
            frontier.append(child)
    return len(seen)


def kernel_ms() -> float:
    """One timed run of the kernel, in ms."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _kernel()
        return (time.perf_counter() - start) * 1e3
    finally:
        if enabled:
            gc.enable()


def factor(before_ms: float, after_ms: float) -> float:
    """How much slower than the reference the host ran between two kernel times."""
    return ((before_ms + after_ms) / 2 / REF_MS) ** SENSITIVITY
