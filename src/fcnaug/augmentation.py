"""Window-slice augmentation: random slice, spline upsample, z-normalize.

A selected sample is augmented by cutting a random contiguous window
(70% of the series by default), stretching it back to the original length
with a not-a-knot cubic spline, and z-normalizing the result.  The whole
procedure runs twice per sample with independent window draws.

The spline is solved here in numpy and plain floats, in the operation order
of scipy's ``CubicSpline`` and LAPACK's ``dgtsv``, so its output equals
scipy's bit for bit (``tests/test_augmentation.py`` holds it to scipy) while
the package does not import scipy.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .data_io import TimeSeriesSample, znormalize
from .errors import InterpolationError, ParameterError
from .rng import RngStream

DEFAULT_WINDOW_FRACTION = 0.7


@dataclass(frozen=True, eq=False)
class WindowSlice:
    """A contiguous sub-series: source start index, length, and the values."""

    start: int
    length: int
    values: np.ndarray


def check_window_fraction(fraction: float) -> None:
    """Reject a window fraction outside (0, 1]."""
    if not 0.0 < fraction <= 1.0:
        raise ParameterError(f"window fraction must be in (0, 1], got {fraction}")


def window_length(n: int, fraction: float) -> int:
    """Slice length for a series of length n: floor(fraction * n)."""
    check_window_fraction(fraction)
    return math.floor(fraction * n)


def slice_window(series, fraction: float, rng: RngStream) -> WindowSlice:
    """Cut a random window of floor(fraction*n) points from the series.

    The start index is drawn uniformly from the n - s + 1 valid positions.
    """
    series = np.asarray(series, dtype=np.float64)
    n = series.shape[0]
    s = window_length(n, fraction)
    if n < 2 or s < 2:
        raise ParameterError(
            f"series of length {n} with fraction {fraction} gives window length {s}; "
            "need at least 2"
        )
    start = int(rng.generator().integers(0, n - s, endpoint=True))
    return WindowSlice(start, s, series[start : start + s].copy())


@functools.lru_cache(maxsize=64)
def _spline_plan(m: int, target_len: int):
    """The part of :func:`spline_resample` that does not depend on the knot values.

    Returns ``(fact, diag, upper, i, z, z2, z3)``: the elimination multipliers,
    eliminated diagonal and super-diagonal of the not-a-knot system as tuples
    of floats, and the evaluation grid's interval index, offset, offset² and
    offset³ as read-only arrays.  Every value is computed exactly as the
    uncached solve and grid computed it.
    """
    diag = [1.0] + [4.0] * (m - 2) + [1.0]
    upper = [2.0] + [1.0] * (m - 2)
    lower = [1.0] * (m - 2) + [2.0]
    fact = []
    for k in range(m - 1):
        fact.append(lower[k] / diag[k])
        diag[k + 1] -= fact[k] * upper[k]
    grid = np.linspace(0.0, float(m - 1), target_len)
    i = np.minimum(grid.astype(np.intp), m - 2)
    z = grid - i
    z2 = z * z
    z3 = z2 * z
    for a in (i, z, z2, z3):
        a.setflags(write=False)
    return tuple(fact), tuple(diag), tuple(upper), i, z, z2, z3


def spline_resample(segment, target_len: int) -> np.ndarray:
    """Resample a segment to target_len points with a not-a-knot cubic spline.

    Knots sit at 0..m-1; the output grid spans [0, m-1] uniformly with both
    endpoints included, so input endpoints are reproduced exactly.

    With unit knot spacing the knot slopes s solve a tridiagonal system with
    diagonal [1, 4, ..., 4, 1], super-diagonal [2, 1, ...] and sub-diagonal
    [..., 1, 2].  It is solved by elimination without pivoting, which is what
    ``dgtsv`` does on this matrix for every m >= 4; each interval is then
    evaluated as a cubic Hermite polynomial with its terms summed in the
    order of scipy's ``PPoly``.  The result is exact to scipy's
    ``CubicSpline(np.arange(m), segment)`` on the same grid.  The matrix
    elimination and the grid depend only on (m, target_len) and come from a
    cached plan; each call runs the right-hand-side recurrences and the sum.
    """
    y = np.asarray(segment, dtype=np.float64)
    m = y.shape[0]
    if m < 4:
        raise InterpolationError(f"cubic spline needs at least 4 knots, got {m}")
    if target_len < 2:
        raise ParameterError(f"target length must be at least 2, got {target_len}")
    fact, diag, upper, i, z, z2, z3 = _spline_plan(m, target_len)
    slope = y[1:] - y[:-1]
    sl = slope.tolist()
    # The right-hand side, overwritten in place by the knot slopes.
    s = [(5.0 * sl[0] + sl[1]) / 2.0, *(3 * (slope[:-1] + slope[1:])).tolist(),
         (sl[-2] + 5.0 * sl[-1]) / 2.0]
    for k in range(m - 1):
        s[k + 1] -= fact[k] * s[k]
    s[-1] /= diag[-1]
    # dgtsv also subtracts 0.0 * s[k + 2] here; no eliminated right-hand
    # side is -0.0, so that term cannot change a bit and is left out.
    for k in range(m - 2, -1, -1):
        s[k] = (s[k] - upper[k] * s[k + 1]) / diag[k]
    s = np.array(s)
    cubic = s[:-1] + s[1:] - 2 * slope
    square = (slope - s[:-1]) - cubic
    # PPoly starts its sum at 0.0, which turns a -0.0 knot value into +0.0.
    return (((0.0 + y[i]) + s[i] * z) + square[i] * z2) + cubic[i] * z3


def augment_sample(
    sample: TimeSeriesSample, fraction: float, rng: RngStream
) -> tuple[TimeSeriesSample, TimeSeriesSample]:
    """Two independent slice -> upsample -> z-normalize passes over one sample.

    Both outputs have the source length and label.  The two windows are drawn
    independently and may coincide by chance.
    """
    n = sample.values.shape[0]
    out = []
    for p in range(2):
        window = slice_window(sample.values, fraction, rng.child("window", p))
        resampled = spline_resample(window.values, n)
        normalized, degenerate = znormalize(resampled)
        out.append(TimeSeriesSample(normalized, sample.label, degenerate))
    return out[0], out[1]
