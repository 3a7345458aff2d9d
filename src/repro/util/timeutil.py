"""Time constants and interval helpers for telescope time series.

All timestamps in the reproduction are Unix epoch seconds (floats).  The
measurement window in the paper is April 1-30, 2021; scenarios default
to windows inside that month so that correlated data sources
(census, honeypot tags) are trivially "in sync" as the paper requires.
"""

from __future__ import annotations

MINUTE = 60.0
HOUR = 3600.0
DAY = 86400.0

#: 2021-04-01 00:00:00 UTC — start of the paper's measurement window.
APRIL_1_2021 = 1617235200.0
#: 2021-05-01 00:00:00 UTC — end (exclusive) of the measurement window.
MAY_1_2021 = 1619827200.0


def overlap_seconds(start_a: float, end_a: float, start_b: float, end_b: float) -> float:
    """Length of the intersection of two closed intervals, >= 0."""
    return max(0.0, min(end_a, end_b) - max(start_a, start_b))
