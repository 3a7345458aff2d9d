"""Tests for interval arithmetic."""

from repro.util.timeutil import overlap_seconds


def test_overlap_full_partial_none():
    assert overlap_seconds(0, 10, 0, 10) == 10
    assert overlap_seconds(0, 10, 5, 20) == 5
    assert overlap_seconds(0, 10, 10, 20) == 0
    assert overlap_seconds(0, 10, 15, 20) == 0
