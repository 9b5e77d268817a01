"""Warm-start compile cache (docs/PERFORMANCE.md, "Parallel execution").

Compilation — grounding, leveling, reachability pruning, closure
compilation — dominates the wall clock of every workload that solves the
same (app, network, leveling) triple more than once: the churn
simulator's repair loop compiles the *same* instance twice per step (the
repair problem and the final stitched validation), transient faults
recover to previously-seen network states, and steady-state sweeps
re-plan unchanged cells.  :class:`CompileCache` memoizes
:func:`~repro.compile.compile_problem` results by content fingerprint
(:mod:`repro.parallel.fingerprint`) and hands out cheap
:meth:`~repro.compile.CompiledProblem.fork` copies, so consumers may
mutate what they receive (deployment repair rewrites initial state and
discounts action costs) without poisoning the cache.

Cross-validation of the (app, network) pair — :func:`require_valid` — is
memoized the same way at its own, coarser key, so a campaign that plans
hundreds of repairs against a handful of recurring network states stops
re-walking the topology for every solve.

Semantically the cache is transparent: a hit returns a problem byte-for-
byte equivalent to a fresh compilation (guarded by the determinism tests
in ``tests/parallel/``).  Only timings change — ``compile_seconds`` on a
forked hit reports the fork time, not the original compilation.  A fork
is one clone per ground action plus copies of the achiever lists: a few
milliseconds for Fig-10/C's 5,228 actions, not zero.

Hits and misses are counted both on the cache object (for benchmarks)
and, when a :class:`~repro.obs.MetricsRegistry` is passed, as
``cache.hit`` / ``cache.miss`` / ``cache.validate.hit`` /
``cache.validate.miss`` counters visible in ``--metrics`` output.
"""

from __future__ import annotations

import time
from collections import OrderedDict

from ..compile import CompiledProblem, compile_problem
from ..model import AppSpec, Leveling
from ..network import Network
from ..obs import MetricsRegistry
from .fingerprint import app_fingerprint, digest, leveling_fingerprint, network_fingerprint

__all__ = ["CompileCache", "default_compile_cache"]


class CompileCache:
    """LRU cache of compiled problems plus an (app, network) validation memo.

    Parameters
    ----------
    max_entries:
        Compiled problems kept (LRU eviction).  Large-network problems
        run to a few tens of MB, so the default stays small; validation
        memo entries are a few bytes and keep ``4 * max_entries``.
    """

    def __init__(self, max_entries: int = 16):
        self.max_entries = max_entries
        self._problems: OrderedDict[tuple, CompiledProblem] = OrderedDict()
        self._validated: OrderedDict[tuple[str, str], None] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.validate_hits = 0
        self.validate_misses = 0
        self.analysis_hits = 0
        self.analysis_misses = 0
        self.delta_hits = 0
        self.delta_fallbacks = 0

    def __len__(self) -> int:
        return len(self._problems)

    def clear(self) -> None:
        self._problems.clear()
        self._validated.clear()

    def stats(self) -> dict:
        """JSON-ready counters (benchmarks and ``--metrics`` summaries)."""
        total = self.hits + self.misses
        return {
            "entries": len(self._problems),
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": round(self.hits / total, 4) if total else 0.0,
            "validate_hits": self.validate_hits,
            "validate_misses": self.validate_misses,
            "analysis_hits": self.analysis_hits,
            "analysis_misses": self.analysis_misses,
            "delta_hits": self.delta_hits,
            "delta_fallbacks": self.delta_fallbacks,
        }

    # -- the memoized compile --------------------------------------------------

    def compile(
        self,
        app: AppSpec,
        network: Network,
        leveling: Leveling | None = None,
        bound_overrides: dict[str, float] | None = None,
        strict: bool = False,
        *,
        analyze: bool = False,
        metrics: MetricsRegistry | None = None,
    ) -> CompiledProblem:
        """Compile (or reuse) a problem; the result is yours to mutate.

        Mirrors :func:`~repro.compile.compile_problem` exactly, including
        its exceptions — a ``strict`` lint failure or an invalid
        (app, network) pair raises on every call, cached or not, because
        failures are never cached.

        With ``analyze=True`` the static-analysis result rides along on
        the cache entry: it is computed at most once per entry (lazily, so
        a problem first cached without analysis gains it on the first
        analyzing hit) and shared by reference with every fork — the
        result holds no action references, so sharing is safe.  Reuse is
        counted as ``cache.analysis.hit`` / ``cache.analysis.miss``.
        """
        key = (
            app_fingerprint(app),
            network_fingerprint(network),
            leveling_fingerprint(leveling),
            digest(bound_overrides),
            strict,
        )
        cached = self._problems.get(key)
        if cached is not None:
            self._problems.move_to_end(key)
            self.hits += 1
            if metrics is not None:
                metrics.inc("cache.hit")
            if analyze:
                if cached.analysis is None:
                    from ..analysis import analyze_problem

                    cached.analysis = analyze_problem(cached)
                    self.analysis_misses += 1
                    if metrics is not None:
                        metrics.inc("cache.analysis.miss")
                else:
                    self.analysis_hits += 1
                    if metrics is not None:
                        metrics.inc("cache.analysis.hit")
            t0 = time.perf_counter()
            fork = cached.fork()
            fork.compile_seconds = time.perf_counter() - t0
            fork.compile_source = "cache"
            return fork
        self.misses += 1
        if metrics is not None:
            metrics.inc("cache.miss")
        if analyze:
            self.analysis_misses += 1
            if metrics is not None:
                metrics.inc("cache.analysis.miss")
        problem = compile_problem(
            app, network, leveling, bound_overrides, strict, analyze=analyze
        )
        self._problems[key] = problem.fork()  # pristine copy, caller may mutate
        while len(self._problems) > self.max_entries:
            self._problems.popitem(last=False)
        # A successful compilation implies the pair validated; remember it.
        self._remember_valid(key[0], key[1])
        return problem

    # -- the delta-aware compile -----------------------------------------------

    def compile_delta(
        self,
        app: AppSpec,
        network: Network,
        leveling: Leveling | None = None,
        bound_overrides: dict[str, float] | None = None,
        strict: bool = False,
        *,
        metrics: MetricsRegistry | None = None,
    ) -> CompiledProblem:
        """Compile, preferring a cached base patched across a network diff.

        The incremental-replanning entry point: on an exact-fingerprint
        hit this is :meth:`compile`; on a miss it looks for a cached
        entry sharing the (app, leveling, overrides) key with a
        *different* network — the previous network state of a repair
        loop — diffs the two topologies
        (:func:`~repro.parallel.fingerprint.network_delta`), and patches
        only the ground actions touching changed elements
        (:func:`repro.compile.delta.patch_problem`) instead of
        recompiling the triple.  The patched problem is cached under the
        new key, so the stitched-validation compile of the same repair
        is a plain hit.

        A successful patch counts as ``cache.delta.hit`` (plus the
        ordinary ``cache.miss`` — the exact key was absent); any
        fallback to full compilation counts as ``cache.delta.full``.
        The result's :attr:`~repro.compile.CompiledProblem.compile_source`
        says which way it came: ``"cache"``, ``"delta"``, or ``"fresh"``.

        Exceptions mirror :meth:`compile`: an invalid (app, network)
        pair raises ``ValueError`` whether patched or compiled.  The
        ``strict`` path never patches (the lint pass reads the network).
        """
        key = (
            app_fingerprint(app),
            network_fingerprint(network),
            leveling_fingerprint(leveling),
            digest(bound_overrides),
            strict,
        )
        if key in self._problems:
            return self.compile(
                app, network, leveling, bound_overrides, strict, metrics=metrics
            )

        base: CompiledProblem | None = None
        if not strict:
            for cached_key in reversed(self._problems):
                if (
                    cached_key[0] == key[0]
                    and cached_key[2:] == key[2:]
                    and cached_key[1] != key[1]
                ):
                    base = self._problems[cached_key]
                    break
        if base is not None:
            from ..compile.delta import patch_problem
            from .fingerprint import network_delta

            delta = network_delta(base.network, network)
            patched = patch_problem(base.fork(), network, delta, bound_overrides)
            if patched is not None:
                self.misses += 1
                self.delta_hits += 1
                if metrics is not None:
                    metrics.inc("cache.miss")
                    metrics.inc("cache.delta.hit")
                self._problems[key] = patched.fork()
                while len(self._problems) > self.max_entries:
                    self._problems.popitem(last=False)
                self._remember_valid(key[0], key[1])
                return patched

        self.delta_fallbacks += 1
        if metrics is not None:
            metrics.inc("cache.delta.full")
        return self.compile(
            app, network, leveling, bound_overrides, strict, metrics=metrics
        )

    # -- the memoized validation ----------------------------------------------

    def require_valid(
        self,
        app: AppSpec,
        network: Network,
        *,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        """Memoized :func:`repro.model.validation.require_valid`.

        Only *successful* validations are remembered — an invalid pair
        re-raises with its full message on every call.
        """
        from ..model.validation import require_valid

        key = (app_fingerprint(app), network_fingerprint(network))
        if key in self._validated:
            self._validated.move_to_end(key)
            self.validate_hits += 1
            if metrics is not None:
                metrics.inc("cache.validate.hit")
            return
        self.validate_misses += 1
        if metrics is not None:
            metrics.inc("cache.validate.miss")
        require_valid(app, network)
        self._remember_valid(*key)

    def _remember_valid(self, app_fp: str, net_fp: str) -> None:
        self._validated[(app_fp, net_fp)] = None
        while len(self._validated) > 4 * self.max_entries:
            self._validated.popitem(last=False)


_default: CompileCache | None = None


def default_compile_cache() -> CompileCache:
    """The process-wide cache (one per worker process, by construction)."""
    global _default
    if _default is None:
        _default = CompileCache()
    return _default
