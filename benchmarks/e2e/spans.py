"""In-memory spans for the traced benchmark run.

The harness records spans from its own files, around the calls into each
``repro`` layer; nothing inside ``src/`` is instrumented.  A span is
``name, start, end, parent`` (``parent`` is the index of the span that
was open when this one started, ``None`` for a root).  A span around a
lazily consumed iterator additionally carries ``busy``: the seconds spent
inside the iterator's own ``next()``, which is the time the wrapped
layer was working rather than waiting for its consumer.

``NullTrace`` has the same three methods and does nothing, so the timed
(untraced) repetitions run the identical workload code.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from time import perf_counter


class NullTrace:
    """Tracing off: the workload code runs unwrapped."""

    def span(self, name):
        return nullcontext()

    def iterate(self, name, iterable):
        return iterable

    def add(self, name, start, end):
        pass


class Tracer:
    """Collects spans in memory; ``self_times()`` folds them by name."""

    def __init__(self) -> None:
        self.spans: list = []
        self._open: list = []

    def _start(self, name, start) -> dict:
        record = {
            "name": name,
            "start": start,
            "end": None,
            "parent": self._open[-1] if self._open else None,
        }
        self.spans.append(record)
        return record

    @contextmanager
    def span(self, name):
        record = self._start(name, perf_counter())
        self._open.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            self._open.pop()
            record["end"] = perf_counter()

    def add(self, name, start, end) -> None:
        """A span whose bounds the caller already measured."""
        self._start(name, start)["end"] = end

    def iterate(self, name, iterable):
        """Wrap an iterator: the span lasts from the first ``next()`` to
        exhaustion and ``busy`` sums the time inside ``next()``.  The parent
        is the span open at the first ``next()``, i.e. the consumer."""
        iterator = iter(iterable)
        record = index = None
        busy = 0.0
        try:
            while True:
                start = perf_counter()
                if record is None:
                    record = self._start(name, start)
                    index = len(self.spans) - 1
                # spans opened while the wrapped layer works are its children
                self._open.append(index)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    self._open.pop()
                    busy += perf_counter() - start
                yield item
        finally:
            if record is not None:
                record["busy"] = busy
                record["end"] = perf_counter()

    def self_times(self) -> dict:
        """Seconds per span name: each span's own time minus the part its
        child spans cover (``busy`` stands in for duration on iterator
        spans, on both sides of the subtraction)."""
        worked = [s.get("busy", s["end"] - s["start"]) for s in self.spans]
        own = list(worked)
        for index, span in enumerate(self.spans):
            if span["parent"] is not None:
                own[span["parent"]] -= worked[index]
        totals: dict = {}
        for span, seconds in zip(self.spans, own):
            totals[span["name"]] = totals.get(span["name"], 0.0) + seconds
        return totals
