"""Diurnal activity modulation.

Figure 3 of the paper shows QUIC *requests* following a stable diurnal
pattern with peaks at 06:00 and 18:00 UTC — the signature of human-
schedule-coupled botnet activity.  :class:`DiurnalModel` provides a
rate multiplier over the day built from two Gaussian bumps on top of a
base level, normalized so the daily mean is 1.0 (total volume is then
controlled independently of shape).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from repro.util.timeutil import HOUR


@dataclass
class DiurnalModel:
    """Two-peaked daily rate profile."""

    peak_hours: tuple = (6.0, 18.0)
    peak_width_hours: float = 2.5
    peak_amplitude: float = 1.1
    base_level: float = 0.6

    def _raw(self, hour: float) -> float:
        level = self.base_level
        for peak in self.peak_hours:
            # wrap-around distance on the 24h circle
            delta = min(abs(hour - peak), 24.0 - abs(hour - peak))
            level += self.peak_amplitude * math.exp(
                -0.5 * (delta / self.peak_width_hours) ** 2
            )
        return level

    # The mean and peak are pure in the (frozen-in-practice) shape
    # parameters but cost 96 ``_raw`` evaluations; the generators call
    # ``factor`` once per candidate event, so cache both normalizers.

    @cached_property
    def _daily_mean(self) -> float:
        samples = [self._raw(h / 4.0) for h in range(96)]
        return sum(samples) / len(samples)

    @cached_property
    def _peak_raw(self) -> float:
        return max(self._raw(h / 4.0) for h in range(96))

    def factor(self, timestamp: float) -> float:
        """Rate multiplier at an epoch timestamp (daily mean is 1.0)."""
        hour = (timestamp % 86400.0) / HOUR
        return self._raw(hour) / self._daily_mean

    def peak_rate_factor(self) -> float:
        """Largest multiplier over the day (used to set thinning rates)."""
        return self._peak_raw / self._daily_mean
