"""Order statistics used by every metric.

Percentiles are taken by rank (nearest-rank method): the p-th percentile
of n samples is the ceil(p/100 * n)-th smallest. A tail percentile is
reported only when at least `MIN_BEYOND` samples lie beyond it; with
fewer, the highest percentile that does have that support is reported
instead, never below the median.
"""

import math

MIN_BEYOND = 10


def rank_of(p, n):
    """1-based rank of the p-th percentile among n samples."""
    if n <= 0:
        raise ValueError("no samples")
    return min(n, max(1, math.ceil(p / 100.0 * n)))


def percentile(values, p):
    """The p-th percentile of `values` by rank."""
    ordered = sorted(values)
    return ordered[rank_of(p, len(ordered)) - 1]


def median(values):
    return percentile(values, 50)


def beyond(p, n):
    """How many of n samples lie beyond the p-th percentile's rank."""
    return n - rank_of(p, n)


def supported(p, n):
    """Whether the p-th percentile of n samples has the ten-beyond support."""
    return n > 0 and beyond(p, n) >= MIN_BEYOND


def tail(values, p=95):
    """The p-th percentile when supported, else the highest supported one.

    Returns (percentile, value, samples_beyond). With too few samples for
    any tail above the median, the median is returned.
    """
    n = len(values)
    ordered = sorted(values)
    if supported(p, n):
        r = rank_of(p, n)
        return p, ordered[r - 1], n - r
    r = max(rank_of(50, n), n - MIN_BEYOND)
    return 100.0 * r / n, ordered[r - 1], n - r


def mean(values):
    return sum(values) / len(values)
