"""Burst pre-screening of telescope time series.

Section 5.1 observes that the sanitized QUIC *response* series "is very
erratic, exhibiting high peaks and drops per event — this behavior
might hint at DoS events", which the paper then inspects with the
session/threshold machinery.  This module implements that first,
cheap look: an EWMA-based burst detector over bucketed packet counts
that flags the intervals worth sessionizing.  Operators use exactly
this kind of screen to decide where to spend the expensive analysis.

The detector keeps exponentially weighted estimates of the mean and
variance (Welford-style, discounted) and flags a bucket whose count
exceeds ``mean + threshold * std`` *as predicted before the bucket is
absorbed* — so a sustained shift eventually becomes the new baseline,
while short spikes keep firing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass
class Burst:
    """One flagged bucket."""

    bucket: int
    count: float
    expected: float
    sigma: float

    @property
    def excess_sigmas(self) -> float:
        return (self.count - self.expected) / self.sigma if self.sigma else math.inf


class BurstDetector:
    """EWMA burst detection over an ordered count series."""

    def __init__(
        self,
        alpha: float = 0.3,
        threshold_sigmas: float = 3.0,
        min_count: float = 5.0,
        warmup: int = 3,
    ) -> None:
        if not 0 < alpha <= 1:
            raise ValueError(f"alpha {alpha} outside (0, 1]")
        if threshold_sigmas <= 0:
            raise ValueError("threshold must be positive")
        self.alpha = alpha
        self.threshold_sigmas = threshold_sigmas
        self.min_count = min_count
        self.warmup = warmup
        self._mean = 0.0
        self._var = 0.0
        self._seen = 0

    def update(self, bucket: int, count: float) -> Burst | None:
        """Feed one bucket; returns a :class:`Burst` if it is anomalous."""
        burst = None
        if self._seen >= self.warmup:
            sigma = math.sqrt(max(self._var, 1.0))
            if (
                count >= self.min_count
                and count > self._mean + self.threshold_sigmas * sigma
            ):
                burst = Burst(bucket=bucket, count=count, expected=self._mean, sigma=sigma)
        delta = count - self._mean
        self._mean += self.alpha * delta
        self._var = (1 - self.alpha) * (self._var + self.alpha * delta * delta)
        self._seen += 1
        return burst


def detect_bursts(
    series: dict,
    alpha: float = 0.3,
    threshold_sigmas: float = 3.0,
    min_count: float = 5.0,
) -> list:
    """Run the detector over a ``{bucket: count}`` series (gaps count 0)."""
    if not series:
        return []
    detector = BurstDetector(
        alpha=alpha, threshold_sigmas=threshold_sigmas, min_count=min_count
    )
    bursts = []
    for bucket in range(min(series), max(series) + 1):
        burst = detector.update(bucket, float(series.get(bucket, 0)))
        if burst is not None:
            bursts.append(burst)
    return bursts


def burstiness(series: dict) -> float:
    """Coefficient of variation of a bucket series — the paper's
    "stable vs erratic" contrast in one number (Figure 3)."""
    if not series:
        return 0.0
    buckets = range(min(series), max(series) + 1)
    values = [float(series.get(b, 0)) for b in buckets]
    mean = sum(values) / len(values)
    if mean == 0:
        return 0.0
    variance = sum((v - mean) ** 2 for v in values) / len(values)
    return math.sqrt(variance) / mean
