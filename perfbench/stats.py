"""Summary statistics for timing samples."""

from __future__ import annotations

import statistics

# A tail percentile is reported only when this many samples lie beyond it.
TAIL_SAMPLES = 10


def percentile(values, q: float) -> float:
    """The q-th percentile (0..100) with linear interpolation between ranks."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of an empty sample")
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def samples_beyond(n: int, q: float) -> float:
    # Rounded so that 10 000 samples leave exactly 10 beyond p99.9.
    return round(n * (100.0 - q) / 100.0, 9)


def checked_percentile(values, q: float) -> float:
    """percentile(), refusing a tail that fewer than TAIL_SAMPLES samples support."""
    beyond = samples_beyond(len(values), q)
    if q > 50.0 and beyond < TAIL_SAMPLES:
        raise ValueError(
            f"p{q:g} needs {TAIL_SAMPLES} samples beyond it; {len(values)} samples give {beyond:g}"
        )
    return percentile(values, q)


def iqr_share(values) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
