"""Summary statistics the benchmark reports.

A percentile is reported only when at least MIN_BEYOND samples lie beyond
it, so a p99 needs at least 1,000 samples. Below that it is None and the
caller reports the median alone.
"""

from __future__ import annotations

import math
import statistics

MIN_BEYOND = 10


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float | None:
    """Nearest-rank q-th percentile, or None if the sample is too small."""
    n = len(values)
    if n == 0 or n * (100.0 - q) / 100.0 < MIN_BEYOND:
        return None
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * n))
    return float(ordered[rank - 1])

