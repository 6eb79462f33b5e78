import numpy as np
import pytest

from stats import TAIL_SAMPLES, checked_percentile, iqr_share, percentile, samples_beyond


@pytest.mark.parametrize("n, q, allowed", [
    (99, 90, False), (100, 90, True), (999, 99, False), (1000, 99, True),
    (9999, 99.9, False), (10_000, 99.9, True), (3, 50, True),
])
def test_a_tail_percentile_needs_ten_samples_beyond_it(n, q, allowed):
    values = list(range(n))
    if allowed:
        assert checked_percentile(values, q) == pytest.approx(percentile(values, q))
        assert q == 50 or samples_beyond(n, q) >= TAIL_SAMPLES
    else:
        with pytest.raises(ValueError, match="needs 10 samples"):
            checked_percentile(values, q)


def test_percentile_matches_numpy_linear_interpolation():
    values = np.random.default_rng(3).exponential(size=137)
    for q in (0, 10, 50, 90, 99, 100):
        assert percentile(values, q) == pytest.approx(np.percentile(values, q))


def test_iqr_share_is_quartile_distance_over_median():
    assert iqr_share([10.0] * 10) == 0.0
    # statistics.quantiles (exclusive method) gives 1.5 and 4.5 here.
    assert iqr_share([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(3.0 / 3.0)
