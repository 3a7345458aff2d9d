"""Cheap stage timers: ``span()`` blocks.

A span observes elapsed wall seconds into a :class:`~repro.obs.metrics.Histogram`
and short-circuits to a shared no-op when the histogram's registry is
disabled, so an instrumented stage costs one attribute check when
metrics are off.

>>> from repro.obs import Registry
>>> registry = Registry()
>>> seconds = registry.histogram("demo_stage_seconds", "stage timings",
...                              labels=("stage",))
>>> with span(seconds, stage="finalize"):
...     pass
>>> seconds.count(stage="finalize")
1
"""

from __future__ import annotations

import time

from repro.obs.metrics import Histogram


class _NullSpan:
    """Shared do-nothing context for the disabled fast path."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    __slots__ = ("histogram", "labels", "start")

    def __init__(self, histogram: Histogram, labels: dict) -> None:
        self.histogram = histogram
        self.labels = labels

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.histogram.observe(
            time.perf_counter() - self.start, **self.labels
        )
        return False


def span(histogram: Histogram, **labels):
    """Context manager timing its block into ``histogram``."""
    if not histogram.registry.enabled:
        return _NULL_SPAN
    return _Span(histogram, labels)

