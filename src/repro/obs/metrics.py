"""Dependency-free metrics core: counters, gauges, histograms, registry.

Every pipeline stage of the reproduction exposes what it counted,
dropped, and cached through one process-wide :class:`Registry` — the
accounting surface that passive-measurement work (the paper, *Waiting
for QUIC*, *A First Look at QUIC in the Wild*) relies on to validate
classification.  Three metric families cover everything instrumented:

- :class:`Counter`   — monotone totals (packets classified, cache hits);
- :class:`Gauge`     — point-in-time values (open sessions, cache size);
- :class:`Histogram` — distributions (stage seconds, alert latency).

All three support Prometheus-style labels.  The design keeps the hot
paths honest about overhead:

- **Disabled by default.** A registry starts enabled, but the
  process-wide :data:`REGISTRY` starts disabled (the CLI's
  ``--metrics-out`` and :func:`enable` turn it on).  Every mutating
  call checks one attribute and returns — instrumented code stays
  within noise of uninstrumented code.
- **Boundary publication.** Per-packet loops never call into this
  module; they keep plain ints and publish at batch/stage boundaries
  (see :mod:`repro.core.pipeline`).  Collector callbacks pull
  externally maintained totals (the wire-template caches) at export
  time only.
- **Mergeable snapshots.** :meth:`Registry.snapshot` produces a
  picklable value and :meth:`Registry.merge_snapshot` folds it in:
  counters and histograms add, gauges overwrite.  The partitioned
  parallel runner resets the child registry after fork and ships one
  snapshot back, so per-worker metrics merge into the parent exactly
  once (``tests/test_obs_parallel.py``).

Example (a standalone registry is enabled by default):

>>> registry = Registry()
>>> packets = registry.counter("demo_packets_total", "packets seen",
...                            labels=("klass",))
>>> packets.inc(3, klass="quic-request")
>>> packets.inc(1, klass="quic-response")
>>> packets.value(klass="quic-request")
3
>>> lag = registry.histogram("demo_lag_seconds", "watermark lag",
...                          buckets=(0.1, 1.0, 10.0))
>>> lag.observe(0.05); lag.observe(2.5)
>>> lag.count(), lag.sum()
(2, 2.55)
"""

from __future__ import annotations

import re
from typing import Callable, Iterable, Optional

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: default histogram buckets for stage/operation timings, in seconds.
TIME_BUCKETS = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
    60.0, 300.0,
)
#: default buckets for event-time latencies (alert latency, watermark
#: lag), in seconds — coarser, since these track capture time.
LATENCY_BUCKETS = (
    0.5, 1.0, 5.0, 15.0, 30.0, 60.0, 120.0, 300.0, 600.0, 1800.0, 3600.0,
)

COUNTER = "counter"
GAUGE = "gauge"
HISTOGRAM = "histogram"


def _labelkey(label_names: tuple, labels: dict) -> tuple:
    """Order the call-site labels by the family's declared names."""
    if len(labels) != len(label_names) or any(
        name not in labels for name in label_names
    ):
        mismatch = set(label_names) ^ set(labels)
        raise ValueError(f"labels {mismatch!r} do not match {label_names!r}")
    return tuple(str(labels[name]) for name in label_names)


class Metric:
    """One metric family: a name, type, help text, and label names.

    Unlabelled families hold a single value under the empty label key;
    labelled families hold one value per observed label combination.
    """

    __slots__ = ("name", "help", "type", "label_names", "registry", "_values")

    def __init__(self, name, help_text, metric_type, label_names, registry):
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        for label in label_names:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name {label!r}")
        self.name = name
        self.help = help_text
        self.type = metric_type
        self.label_names = tuple(label_names)
        self.registry = registry
        self._values: dict = {}

    # -- introspection -----------------------------------------------------

    def samples(self) -> list:
        """``(labels_dict, value)`` pairs, label-key sorted."""
        return [
            (dict(zip(self.label_names, key)), value)
            for key, value in sorted(self._values.items())
        ]

    def reset(self) -> None:
        """Drop every recorded value; the family itself stays registered."""
        self._values.clear()

class Counter(Metric):
    """Monotonically increasing total."""

    __slots__ = ()

    def __init__(self, name, help_text, label_names, registry):
        super().__init__(name, help_text, COUNTER, label_names, registry)

    def inc(self, amount: float = 1, **labels) -> None:
        """Add ``amount`` (default 1) to the labelled total. No-op when
        the registry is disabled; negative amounts raise."""
        if not self.registry.enabled:
            return
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        key = _labelkey(self.label_names, labels)
        self._values[key] = self._values.get(key, 0) + amount

    def set_total(self, value: float, **labels) -> None:
        """Overwrite the running total (collector callbacks publishing
        an externally maintained count — e.g. a cache's own hit tally)."""
        if not self.registry.enabled:
            return
        self._values[_labelkey(self.label_names, labels)] = value

    def value(self, **labels) -> float:
        """The current total for this label combination (0 if unseen)."""
        return self._values.get(_labelkey(self.label_names, labels), 0)


class Gauge(Metric):
    """Point-in-time value that can go up and down."""

    __slots__ = ()

    def __init__(self, name, help_text, label_names, registry):
        super().__init__(name, help_text, GAUGE, label_names, registry)

    def set(self, value: float, **labels) -> None:
        """Overwrite the labelled value. No-op when disabled."""
        if not self.registry.enabled:
            return
        self._values[_labelkey(self.label_names, labels)] = value

    def inc(self, amount: float = 1, **labels) -> None:
        """Add ``amount`` (may be negative) to the labelled value."""
        if not self.registry.enabled:
            return
        key = _labelkey(self.label_names, labels)
        self._values[key] = self._values.get(key, 0) + amount

    def value(self, **labels) -> float:
        """The current value for this label combination (0 if unseen)."""
        return self._values.get(_labelkey(self.label_names, labels), 0)


class _HistogramState:
    """Per-labelset histogram accumulator (bucket counts + sum/count)."""

    __slots__ = ("bucket_counts", "sum", "count")

    def __init__(self, n_buckets: int) -> None:
        self.bucket_counts = [0] * (n_buckets + 1)  # +1: the +Inf bucket
        self.sum = 0.0
        self.count = 0


class Histogram(Metric):
    """Distribution over fixed upper-bound buckets (Prometheus style)."""

    __slots__ = ("buckets",)

    def __init__(self, name, help_text, label_names, registry, buckets):
        super().__init__(name, help_text, HISTOGRAM, label_names, registry)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.buckets = bounds

    def observe(self, value: float, **labels) -> None:
        """Record one observation into its bucket and the sum/count."""
        if not self.registry.enabled:
            return
        key = _labelkey(self.label_names, labels)
        state = self._values.get(key)
        if state is None:
            state = self._values[key] = _HistogramState(len(self.buckets))
        index = len(self.buckets)  # +Inf by default
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                index = i
                break
        state.bucket_counts[index] += 1
        state.sum += value
        state.count += 1

    # -- unlabelled conveniences (tests, doctests) -------------------------

    def count(self, **labels) -> int:
        """Observations recorded for this label combination."""
        state = self._values.get(_labelkey(self.label_names, labels))
        return state.count if state else 0

    def sum(self, **labels) -> float:
        """Sum of observed values for this label combination."""
        state = self._values.get(_labelkey(self.label_names, labels))
        return state.sum if state else 0.0


class Registry:
    """A named collection of metric families.

    ``enabled`` gates every mutating call on every metric it owns;
    :func:`collect` runs registered collector callbacks (which pull
    externally maintained totals) and returns the families.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._families: dict = {}
        self._collectors: list = []

    # -- family construction (get-or-create) -------------------------------

    def counter(self, name, help_text="", labels: Iterable[str] = ()) -> Counter:
        """Get or create the :class:`Counter` family called ``name``."""
        return self._get_or_create(Counter, name, help_text, tuple(labels))

    def gauge(self, name, help_text="", labels: Iterable[str] = ()) -> Gauge:
        """Get or create the :class:`Gauge` family called ``name``."""
        return self._get_or_create(Gauge, name, help_text, tuple(labels))

    def histogram(
        self, name, help_text="", labels: Iterable[str] = (),
        buckets=TIME_BUCKETS,
    ) -> Histogram:
        """Get or create the :class:`Histogram` family called ``name``.
        ``buckets`` only applies on first creation."""
        existing = self._families.get(name)
        if existing is not None:
            self._check(existing, HISTOGRAM, tuple(labels))
            return existing
        family = Histogram(name, help_text, tuple(labels), self, buckets)
        self._families[name] = family
        return family

    def _get_or_create(self, cls, name, help_text, label_names):
        existing = self._families.get(name)
        if existing is not None:
            self._check(existing, cls(name, help_text, (), self).type, label_names)
            return existing
        family = cls(name, help_text, label_names, self)
        self._families[name] = family
        return family

    @staticmethod
    def _check(existing, metric_type, label_names) -> None:
        if existing.type != metric_type or existing.label_names != label_names:
            raise ValueError(
                f"metric {existing.name!r} already registered as "
                f"{existing.type} with labels {existing.label_names!r}"
            )

    # -- access ------------------------------------------------------------

    def get(self, name: str) -> Optional[Metric]:
        """The family called ``name``, or ``None`` if never registered."""
        return self._families.get(name)

    def families(self) -> list:
        """All registered families, name-sorted."""
        return [self._families[name] for name in sorted(self._families)]

    def add_collector(self, callback: Callable[[], None]) -> None:
        """Register a callback that refreshes pull-style metrics; run by
        :meth:`collect` (deduplicated, so module reloads are safe)."""
        if callback not in self._collectors:
            self._collectors.append(callback)

    def collect(self) -> list:
        """Run collectors, then return all families (export entry point)."""
        if self.enabled:
            for callback in self._collectors:
                callback()
        return self.families()

    # -- lifecycle ---------------------------------------------------------

    def reset(self) -> None:
        """Zero every value, keeping the families registered (a forked
        worker calls this so its snapshot carries only its own deltas)."""
        for family in self._families.values():
            family.reset()

    def snapshot(self, run_collectors: bool = True) -> dict:
        """Picklable value state, for cross-process merging.

        Part workers pass ``run_collectors=False``: collector-sourced
        totals are pull-style views of process-local caches, and a
        forked worker's caches start as copies of the parent's — adding
        them back on merge would double-count the parent's own work.
        """
        if run_collectors:
            self.collect()
        out: dict = {}
        for family in self._families.values():
            if family.type == HISTOGRAM:
                values = {
                    key: (list(state.bucket_counts), state.sum, state.count)
                    for key, state in family._values.items()
                }
                out[family.name] = (
                    family.type, family.help, family.label_names,
                    family.buckets, values,
                )
            else:
                out[family.name] = (
                    family.type, family.help, family.label_names, None,
                    dict(family._values),
                )
        return out

    def merge_snapshot(self, snapshot: dict) -> None:
        """Fold a :meth:`snapshot` in: counters and histograms add,
        gauges overwrite.  Families absent here are created."""
        for name, (mtype, help_text, label_names, buckets, values) in sorted(
            snapshot.items()
        ):
            if mtype == COUNTER:
                family = self.counter(name, help_text, label_names)
                for key, value in values.items():
                    family._values[key] = family._values.get(key, 0) + value
            elif mtype == GAUGE:
                family = self.gauge(name, help_text, label_names)
                family._values.update(values)
            else:
                family = self.histogram(name, help_text, label_names, buckets)
                if family.buckets != tuple(buckets):
                    raise ValueError(
                        f"histogram {name!r} bucket mismatch on merge"
                    )
                for key, (bucket_counts, total, count) in values.items():
                    state = family._values.get(key)
                    if state is None:
                        state = family._values[key] = _HistogramState(
                            len(family.buckets)
                        )
                    for i, n in enumerate(bucket_counts):
                        state.bucket_counts[i] += n
                    state.sum += total
                    state.count += count


#: The process-wide registry every instrumented module publishes to.
#: Disabled until enabled (the CLI's ``--metrics-out`` and the
#: benchmark's traced pass do) so uninstrumented runs pay one
#: attribute check per publication point.
REGISTRY = Registry(enabled=False)


def enabled() -> bool:
    """Whether the process-wide registry is recording."""
    return REGISTRY.enabled


def set_enabled(value: bool) -> None:
    """Turn the process-wide registry on or off (restores a saved state)."""
    REGISTRY.enabled = bool(value)


def enable() -> None:
    """Start recording on the process-wide registry."""
    REGISTRY.enabled = True


def disable() -> None:
    """Stop recording on the process-wide registry (values are kept)."""
    REGISTRY.enabled = False
