"""``repro.obs`` — the unified observability layer.

One dependency-free surface replaces the ad-hoc telemetry that used to
be scattered across ``class_counts`` keys, ``StreamTelemetry`` fields,
and bench scripts: every pipeline stage publishes what it counted,
dropped, and cached into the process-wide :data:`REGISTRY`, and the
CLI exports it (``repro analyze/report/watch --metrics-out FILE``,
``repro stats FILE.json``).

Layout:

- :mod:`repro.obs.metrics` — ``Counter``/``Gauge``/``Histogram`` with
  labels, the ``Registry`` (snapshot/merge for multiprocessing), the
  enabled/disabled fast path;
- :mod:`repro.obs.timers`  — ``span()`` blocks for stage timings;
- :mod:`repro.obs.export`  — Prometheus text exposition, JSON, and the
  human summary behind ``repro stats``.

``docs/METRICS.md`` is the reference for every metric name, type, and
label — kept in lockstep with the live registry by
``tests/test_docs_metrics_sync.py``.  Instrumentation conventions
(boundary publication, collector callbacks, exactly-once worker
merges) are documented in :mod:`repro.obs.metrics`.
"""

from repro.obs.metrics import (
    COUNTER,
    GAUGE,
    HISTOGRAM,
    LATENCY_BUCKETS,
    METRICS_ENV,
    REGISTRY,
    TIME_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    Registry,
    disable,
    enable,
    enabled,
    set_enabled,
)
from repro.obs.timers import span
from repro.obs.export import (
    metrics_dict,
    render_json,
    render_prometheus,
    render_summary,
    write_metrics,
)


def counter(name, help_text="", labels=()):
    """Get-or-create a counter in the process-wide registry."""
    return REGISTRY.counter(name, help_text, labels)


def gauge(name, help_text="", labels=()):
    """Get-or-create a gauge in the process-wide registry."""
    return REGISTRY.gauge(name, help_text, labels)


def histogram(name, help_text="", labels=(), buckets=TIME_BUCKETS):
    """Get-or-create a histogram in the process-wide registry."""
    return REGISTRY.histogram(name, help_text, labels, buckets)


__all__ = [
    "COUNTER",
    "GAUGE",
    "HISTOGRAM",
    "LATENCY_BUCKETS",
    "METRICS_ENV",
    "REGISTRY",
    "TIME_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "Registry",
    "counter",
    "disable",
    "enable",
    "enabled",
    "gauge",
    "histogram",
    "metrics_dict",
    "render_json",
    "render_prometheus",
    "render_summary",
    "set_enabled",
    "span",
    "write_metrics",
]
