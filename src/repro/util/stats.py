"""Small statistics helpers: percentiles and empirical CDFs.

The paper reports most results as CDFs (Figures 6, 7, 12, 13) and
medians.  :class:`EmpiricalCdf` is the shared representation the report
prints its CDFs from.
"""

from __future__ import annotations

from typing import Iterable, Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile, ``q`` in [0, 100].

    >>> percentile([1, 2, 3, 4], 50)
    2.5
    """
    if not values:
        raise ValueError("percentile of empty sequence")
    if not 0 <= q <= 100:
        raise ValueError(f"percentile q={q} outside [0, 100]")
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (q / 100.0) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    frac = rank - low
    return ordered[low] * (1 - frac) + ordered[high] * frac


def median(values: Sequence[float]) -> float:
    return percentile(values, 50)


class EmpiricalCdf:
    """Empirical cumulative distribution over a finite sample."""

    def __init__(self, values: Iterable[float]) -> None:
        self._values = sorted(float(v) for v in values)
        if not self._values:
            raise ValueError("EmpiricalCdf of empty sample")

    def __len__(self) -> int:
        return len(self._values)

    @property
    def values(self) -> list[float]:
        return list(self._values)

    @property
    def median_value(self) -> float:
        return percentile(self._values, 50)

    def steps(self, max_points: int = 200) -> list[tuple[float, float]]:
        """(value, cumulative fraction) pairs, thinned for display."""
        n = len(self._values)
        points = [(v, (i + 1) / n) for i, v in enumerate(self._values)]
        if n <= max_points:
            return points
        stride = n / max_points
        picked = [points[min(int(i * stride), n - 1)] for i in range(max_points)]
        if picked[-1] != points[-1]:
            picked.append(points[-1])
        return picked
