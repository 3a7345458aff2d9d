"""Tests for percentiles and empirical CDFs."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.stats import EmpiricalCdf, median, percentile


def test_percentile_interpolates():
    assert percentile([1, 2, 3, 4], 50) == 2.5
    assert percentile([1, 2, 3, 4], 0) == 1
    assert percentile([1, 2, 3, 4], 100) == 4


def test_percentile_single_value():
    assert percentile([42], 73) == 42.0


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1], 101)


def test_median_odd():
    assert median([5, 1, 9]) == 5


def test_cdf_fraction_at_most():
    cdf = EmpiricalCdf([1, 1, 2, 4])
    assert cdf.fraction_at_most(0) == 0.0
    assert cdf.fraction_at_most(1) == 0.5
    assert cdf.fraction_at_most(2) == 0.75
    assert cdf.fraction_at_most(4) == 1.0
    assert cdf.fraction_at_most(100) == 1.0


def test_cdf_steps_thinning():
    cdf = EmpiricalCdf(range(1000))
    steps = cdf.steps(max_points=50)
    assert len(steps) <= 51
    assert steps[-1] == (999.0, 1.0)


@given(st.lists(st.floats(min_value=-1e9, max_value=1e9), min_size=1, max_size=200))
def test_cdf_is_monotone_and_ends_at_one(values):
    cdf = EmpiricalCdf(values)
    fractions = [f for _v, f in cdf.steps()]
    assert all(b >= a for a, b in zip(fractions, fractions[1:]))
    assert fractions[-1] == 1.0

