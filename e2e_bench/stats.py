"""Small statistics and process helpers shared by the runners."""

from __future__ import annotations

import resource
import statistics
from typing import Sequence


def pct(values: Sequence[float], q: int) -> float:
    """The ``q``-th percentile (1-99) by linear interpolation; 0.0 for
    no values."""
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB (Linux reports
    ``ru_maxrss`` in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
