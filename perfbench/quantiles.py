"""Summary statistics the benchmark reports.

Latencies are summarised as a median and a tail percentile.  A tail
percentile is only reported when the run holds at least ``MIN_BEYOND``
samples beyond it: with fewer, the "tail" is one or two slow operations
and moves with whichever op happened to stall.
"""

from __future__ import annotations

from collections.abc import Sequence

MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A percentile was asked of a run too short to support it."""


def samples_beyond(n: int, percent: int) -> int:
    """How many of ``n`` samples lie beyond the ``percent``-th percentile.

    Integer arithmetic on purpose: ``100 * (1 - 0.9)`` is 9.999… in
    floating point, which would make 100 samples one short of p90.
    """
    return n * (100 - percent) // 100


def min_samples(percent: int) -> int:
    """The smallest run that supports the ``percent``-th percentile."""
    n = MIN_BEYOND
    while samples_beyond(n, percent) < MIN_BEYOND:
        n += 1
    return n


def percentile(samples: Sequence[float], percent: int) -> float:
    """The ``percent``-th percentile, linearly interpolated between ranks.

    Raises :class:`TooFewSamples` unless at least ``MIN_BEYOND`` samples
    lie beyond it.
    """
    if not 0 < percent < 100:
        raise ValueError(f"percent must be in (0, 100), got {percent}")
    n = len(samples)
    if samples_beyond(n, percent) < MIN_BEYOND:
        raise TooFewSamples(
            f"p{percent} needs {min_samples(percent)} samples "
            f"({MIN_BEYOND} beyond it); the run has {n}"
        )
    ordered = sorted(samples)
    pos = (n - 1) * percent / 100
    lo = int(pos)
    hi = min(lo + 1, n - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)
