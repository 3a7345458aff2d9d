"""Metric export: Prometheus text exposition, JSON, human summary.

Three renderings of the same registry:

- :func:`render_prometheus` — the text exposition format scrapers and
  ``promtool`` understand (``# HELP``/``# TYPE`` headers, cumulative
  ``_bucket{le=...}`` histogram samples);
- :func:`render_json` — a stable JSON document for programmatic
  consumers and for the ``repro stats`` renderer;
- :func:`render_summary` — the per-subsystem table ``repro stats``
  prints for humans.

:func:`write_metrics` is the CLI back end for ``--metrics-out``: it
always emits *both* machine formats (Prometheus text plus JSON side by
side) so a run's accounting can feed a scraper and a notebook alike.

>>> from repro.obs import Registry
>>> registry = Registry()
>>> registry.counter("demo_total", "things demoed").inc(2)
>>> print(render_prometheus(registry))
# HELP demo_total things demoed
# TYPE demo_total counter
demo_total 2
<BLANKLINE>
"""

from __future__ import annotations

import json
from typing import Optional

from repro.obs.metrics import HISTOGRAM, REGISTRY, Registry
from repro.util.render import format_table

JSON_VERSION = 1


def _format_value(value) -> str:
    """Prometheus number formatting: integral floats lose the ``.0``."""
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace("\n", "\\n").replace('"', '\\"')
    )


def _labelstr(labels: dict, extra: Optional[tuple] = None) -> str:
    pairs = [
        f'{name}="{_escape_label(str(value))}"'
        for name, value in labels.items()
    ]
    if extra is not None:
        pairs.append(f'{extra[0]}="{extra[1]}"')
    return "{" + ",".join(pairs) + "}" if pairs else ""


def render_prometheus(registry: Registry = REGISTRY) -> str:
    """The registry in Prometheus text exposition format."""
    lines: list = []
    for family in registry.collect():
        if family.help:
            lines.append(f"# HELP {family.name} {_escape_help(family.help)}")
        lines.append(f"# TYPE {family.name} {family.type}")
        for labels, value in family.samples():
            if family.type == HISTOGRAM:
                cumulative = 0
                for bound, count in zip(family.buckets, value.bucket_counts):
                    cumulative += count
                    lines.append(
                        f"{family.name}_bucket"
                        f"{_labelstr(labels, ('le', _format_value(bound)))}"
                        f" {cumulative}"
                    )
                cumulative += value.bucket_counts[-1]
                lines.append(
                    f"{family.name}_bucket{_labelstr(labels, ('le', '+Inf'))}"
                    f" {cumulative}"
                )
                lines.append(
                    f"{family.name}_sum{_labelstr(labels)}"
                    f" {_format_value(value.sum)}"
                )
                lines.append(
                    f"{family.name}_count{_labelstr(labels)} {value.count}"
                )
            else:
                lines.append(
                    f"{family.name}{_labelstr(labels)} {_format_value(value)}"
                )
    return "\n".join(lines) + "\n"


def metrics_dict(registry: Registry = REGISTRY) -> dict:
    """The registry as a JSON-ready dict (see :func:`render_json`)."""
    metrics = []
    for family in registry.collect():
        samples = []
        for labels, value in family.samples():
            if family.type == HISTOGRAM:
                buckets = {
                    _format_value(bound): count
                    for bound, count in zip(family.buckets, value.bucket_counts)
                }
                buckets["+Inf"] = value.bucket_counts[-1]
                samples.append(
                    {
                        "labels": labels,
                        "buckets": buckets,
                        "sum": value.sum,
                        "count": value.count,
                    }
                )
            else:
                samples.append({"labels": labels, "value": value})
        metrics.append(
            {
                "name": family.name,
                "type": family.type,
                "help": family.help,
                "label_names": list(family.label_names),
                "samples": samples,
            }
        )
    return {"version": JSON_VERSION, "metrics": metrics}


def render_json(registry: Registry = REGISTRY) -> str:
    """The registry as pretty-printed, key-sorted JSON (trailing newline)."""
    return json.dumps(metrics_dict(registry), indent=2, sort_keys=True) + "\n"


def write_metrics(path: str, registry: Registry = REGISTRY) -> list:
    """Write Prometheus text and JSON exports side by side.

    ``path`` names the Prometheus file; the JSON lands next to it with
    a ``.json`` extension (``metrics.prom`` → ``metrics.json``).  If
    ``path`` itself ends in ``.json`` the roles flip.  Returns the
    paths written, Prometheus first.
    """
    if path.endswith(".json"):
        json_path = path
        prom_path = path[: -len(".json")] + ".prom"
    elif path.endswith(".prom") or path.endswith(".txt"):
        prom_path = path
        json_path = path.rsplit(".", 1)[0] + ".json"
    else:
        prom_path = path + ".prom"
        json_path = path + ".json"
    with open(prom_path, "w") as handle:
        handle.write(render_prometheus(registry))
    with open(json_path, "w") as handle:
        handle.write(render_json(registry))
    return [prom_path, json_path]


# -- human summary ---------------------------------------------------------


def _subsystem(name: str) -> str:
    parts = name.split("_")
    return parts[1] if len(parts) > 2 and parts[0] == "repro" else "other"


def _summary_rows(document: dict) -> list:
    rows = []
    for metric in document["metrics"]:
        for sample in metric["samples"]:
            labels = sample.get("labels") or {}
            labelstr = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
            if metric["type"] == HISTOGRAM:
                count = sample["count"]
                total = sample["sum"]
                mean = total / count if count else 0.0
                value = f"n={count}  sum={total:.3f}s  mean={mean:.4f}s"
            else:
                value = _format_value(sample["value"])
            rows.append(
                [
                    _subsystem(metric["name"]),
                    metric["name"],
                    labelstr or "-",
                    value,
                ]
            )
    rows.sort(key=lambda row: (row[0], row[1], row[2]))
    return rows


def render_summary(source) -> str:
    """Human-readable metric summary for ``repro stats``.

    ``source`` is a registry, a :func:`metrics_dict` document, or a
    path to a JSON export written by ``--metrics-out``.
    """
    if isinstance(source, Registry):
        document = metrics_dict(source)
    elif isinstance(source, dict):
        document = source
    else:
        with open(source) as handle:
            document = json.load(handle)
    rows = _summary_rows(document)
    if not rows:
        return "no metrics recorded (is --metrics-out set?)"
    return format_table(
        ["subsystem", "metric", "labels", "value"],
        rows,
        title="repro metrics summary",
    )
