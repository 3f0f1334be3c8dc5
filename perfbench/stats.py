"""The sample-count rule for tail percentiles.

A latency median is printed with a tail percentile (``np.percentile``,
linear interpolation): the highest percentile that still has at least
:data:`MIN_TAIL_SAMPLES` samples beyond it.  When no candidate has that
many, the runner prints that no tail is resolved rather than a percentile
that rests on a handful of points.
"""

from __future__ import annotations

#: Samples that must lie beyond a tail percentile for it to count as
#: resolved.
MIN_TAIL_SAMPLES = 10

#: Tail percentiles considered, highest first.
TAIL_CANDIDATES = (99.0, 95.0, 90.0, 75.0)


def samples_beyond(n: int, q: float) -> float:
    """How many of *n* samples lie above the *q*-th percentile."""
    return n * (100.0 - q) / 100.0


def tail_percentile(n: int) -> float | None:
    """The highest of :data:`TAIL_CANDIDATES` with at least
    :data:`MIN_TAIL_SAMPLES` of *n* samples beyond it, or ``None``."""
    for q in TAIL_CANDIDATES:
        if samples_beyond(n, q) >= MIN_TAIL_SAMPLES:
            return q
    return None
