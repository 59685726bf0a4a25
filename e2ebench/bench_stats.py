"""Order statistics for the end-to-end benchmark.

The percentile rule: a timing is reported as a median plus the highest
percentile that still has at least :data:`MIN_TAIL` samples beyond it.  The
benchmark names its percentiles up front (``step_ms.p90``, ``burst_us.p99``),
so :func:`percentile` *refuses* a sample too small to support the requested
one instead of quietly reporting a tail made of one or two outliers.
"""

from __future__ import annotations

import math
from typing import Sequence

#: Samples that must lie strictly beyond a reported percentile.
MIN_TAIL = 10


class InsufficientSamples(ValueError):
    """The sample is too small for the requested percentile."""


def min_samples_for(q: float) -> int:
    """Smallest sample size that leaves :data:`MIN_TAIL` samples beyond the
    nearest-rank ``q``-th percentile (``q`` in percent, ``0 <= q < 100``)."""
    if not 0.0 <= q < 100.0:
        raise ValueError(f"percentile must be in [0, 100), got {q}")
    n = MIN_TAIL
    while n - math.ceil(q / 100.0 * n) < MIN_TAIL:
        n += 1
    return n


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile, refusing too-small samples.

    The value returned is the ``ceil(q/100 * n)``-th smallest sample (the
    smallest for ``q == 0``); at least :data:`MIN_TAIL` samples must rank
    strictly above it, otherwise :class:`InsufficientSamples` is raised.
    """
    n = len(samples)
    if n < min_samples_for(q):
        raise InsufficientSamples(
            f"p{q:g} needs at least {min_samples_for(q)} samples "
            f"({MIN_TAIL} beyond it), got {n}"
        )
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * n))
    return ordered[rank - 1]


def median(samples: Sequence[float]) -> float:
    """Plain median (mean of the middle pair for even sizes); any size >= 1."""
    if not samples:
        raise InsufficientSamples("median of an empty sample")
    ordered = sorted(samples)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0
