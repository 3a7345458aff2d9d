"""A minimal discrete-event simulation loop.

Deliberately tiny: a time-ordered heap of callbacks.  The NGINX model
processes its (deterministic-rate) replay stream inline for speed and
uses the loop for cross-cutting events — legitimate client probes,
periodic state expiry, measurement sampling.
"""

from __future__ import annotations

import heapq
from typing import Callable, Optional


class EventLoop:
    """Heap-based event scheduler with stable FIFO tie-breaking."""

    def __init__(self, start: float = 0.0) -> None:
        self.now = start
        self._heap: list = []
        self._sequence = 0

    def schedule_at(self, when: float, callback: Callable[[], None]) -> None:
        if when < self.now:
            raise ValueError(f"cannot schedule into the past ({when} < {self.now})")
        heapq.heappush(self._heap, (when, self._sequence, callback))
        self._sequence += 1

    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        self.schedule_at(self.now + delay, callback)

    def schedule_every(
        self, interval: float, callback: Callable[[], None], until: Optional[float] = None
    ) -> None:
        """Repeat ``callback`` every ``interval`` seconds (optionally bounded)."""
        if interval <= 0:
            raise ValueError("interval must be positive")

        def tick() -> None:
            callback()
            next_time = self.now + interval
            if until is None or next_time <= until:
                self.schedule_at(next_time, tick)

        self.schedule_at(self.now + interval, tick)

    def run_until(self, end: float) -> None:
        """Process events with timestamps <= end; advances ``now`` to end."""
        while self._heap and self._heap[0][0] <= end:
            when, _seq, callback = heapq.heappop(self._heap)
            self.now = when
            callback()
        self.now = max(self.now, end)

    def run(self) -> None:
        """Drain every scheduled event."""
        while self._heap:
            when, _seq, callback = heapq.heappop(self._heap)
            self.now = when
            callback()

    @property
    def pending(self) -> int:
        return len(self._heap)
