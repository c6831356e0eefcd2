import math

import numpy as np
import pytest

from pipebench.stats import percentile, self_time, supported_percentile


def test_percentile_keeps_ten_samples_beyond():
    values = np.arange(1, 101, dtype=float)  # n = 100
    p90 = percentile(values, 90)
    assert (p90.percentile, p90.n) == (90.0, 100)
    assert np.count_nonzero(values > p90.value) == 10
    # p99 would leave one sample beyond it: capped to p90.
    p99 = percentile(values, 99)
    assert p99.percentile == 90.0 and p99.value == p90.value
    assert p99.label() == "p90 of n=100"


def test_percentile_reports_requested_when_supported():
    values = np.random.default_rng(0).random(1200)
    p99 = percentile(values, 99)
    assert (p99.percentile, p99.n) == (99.0, 1200)
    assert np.count_nonzero(values > p99.value) >= 10


@pytest.mark.parametrize("n, expected", [(0, 50.0), (5, 50.0), (20, 50.0),
                                         (25, 60.0), (50, 80.0), (999, 98.9)])
def test_supported_percentile_rounds_down(n, expected):
    assert supported_percentile(n, 99) == expected
    if n > 10:
        assert n * (1 - supported_percentile(n, 99) / 100) >= 10 - 1e-9


def test_empty_sample_is_nan():
    result = percentile([], 50)
    assert math.isnan(result.value) and result.n == 0


def test_self_time_of_nested_spans():
    # parent [0, 10]; children [1, 3] and [2, 5] overlap, [8, 12] sticks out.
    assert self_time(0, 10, [(1, 3), (2, 5), (8, 12)]) == pytest.approx(4.0)
    assert self_time(0, 10, []) == 10
    assert self_time(0, 10, [(0, 10), (3, 4)]) == 0
