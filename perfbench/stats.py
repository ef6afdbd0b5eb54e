"""Order statistics the benchmark reports.

Pure Python on purpose: ``run.py`` imports this before NumPy, so nothing
here may pull NumPy in ahead of the BLAS thread pinning.
"""

from __future__ import annotations

from typing import Optional, Sequence

#: Tail percentiles the harness is willing to report, lowest first.
PERCENTILE_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

#: A percentile is reported only with this many samples beyond it.
MIN_SAMPLES_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_percentile(n: int) -> Optional[float]:
    """Highest ladder percentile with ``MIN_SAMPLES_BEYOND`` samples beyond it.

    ``None`` when even the median has fewer than that many samples above
    it (n < 20).  At n >= 100 this is at least 90, which is why the
    benchmark's fixed tail metric is ``latency_ms_p90`` and every
    workload is sized for >= 100 operations per run.
    """
    best = None
    for q in PERCENTILE_LADDER:
        if n * (100.0 - q) / 100.0 >= MIN_SAMPLES_BEYOND - 1e-6:
            best = q
    return best


def worse_by(first: float, second: float, better: str) -> float:
    """Share of ``first`` by which ``second`` is worse (negative = better)."""
    if better == "lower":
        return (second - first) / first
    return (first - second) / first
