"""Sketch tier: flood-alert accuracy and memory vs the exact monitor.

Engineering benchmark for :mod:`repro.stream.sketch` (not a paper
figure).  For each scenario seed the exact-mode :class:`StreamAnalyzer`
is the oracle; the sketch mode re-consumes the *identical* captured
batch list at several sizings and we report

- flood-alert precision / recall on ``(vector, victim, start)`` keys —
  the acceptance bar is >= 0.95 for both at the default sizing across
  all seeds combined;
- per-source packet-count relative error of the conservative-update
  count-min against the exact tallies (mean and p99);
- the memory story: sketch structure bytes (a build-time constant,
  asserted independent of source cardinality) vs what the exact
  per-source dicts would need.

Results append to the ``benchmarks/out/BENCH_sketch.json`` trajectory.
``REPRO_BENCH_QUICK=1`` shrinks the sweep for CI and skips the append.
"""

import json
import os
import time
from pathlib import Path

from repro.core import AnalysisConfig
from repro.core.classify import PacketClass
from repro.stream import StreamAnalyzer, StreamConfig
from repro.stream.sketch import SketchTier
from repro.telescope import Scenario, ScenarioConfig
from repro.util.batching import batched
from repro.util.timeutil import HOUR

TRAJECTORY = Path(__file__).parent / "out" / "BENCH_sketch.json"
TRAJECTORY_SCHEMA = 1
#: every key a schema-1 row carries; older rows are backfilled with
#: nulls so consumers can index columns without per-row key checks.
TRAJECTORY_KEYS = (
    "unix_time",
    "seeds",
    "packets",
    "default_precision",
    "default_recall",
    "default_mean_rel_error",
    "default_p99_rel_error",
    "sketch_bytes",
    "exact_bytes_estimate",
    "sweep",
)

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))
SEEDS = (11, 23) if QUICK else (11, 23, 37, 41, 59)
SCENARIO_HOURS = 1.0 if QUICK else 2.0
#: (label, width, capacity) — depth/precision held at defaults; width
#: drives count error, capacity drives alert fidelity.  The last entry
#: is the default sizing the acceptance bar applies to.
SWEEP = (
    ("tiny", 128, 16),
    ("small", 512, 64),
    ("default", 2048, 512),
)


def _monitor(scenario, batches, stream_config):
    analyzer = StreamAnalyzer(
        registry=scenario.internet.registry,
        census=scenario.internet.census,
        greynoise=scenario.internet.greynoise,
        config=AnalysisConfig(),
        stream_config=stream_config,
    )
    for _event in analyzer.events(iter(batches)):
        pass
    return analyzer


def _alert_keys(analyzer):
    return {(a.vector, a.victim_ip, a.start) for a in analyzer.alerts}


def _append_trajectory(record):
    TRAJECTORY.parent.mkdir(exist_ok=True)
    runs = []
    if TRAJECTORY.exists():
        try:
            runs = json.loads(TRAJECTORY.read_text()).get("runs", [])
        except (ValueError, AttributeError):
            runs = []
    runs.append(record)
    # normalize: every row carries the full schema-1 key set, extra
    # keys from future revisions are preserved as-is
    runs = [
        {**{key: run.get(key) for key in TRAJECTORY_KEYS}, **run} for run in runs
    ]
    TRAJECTORY.write_text(
        json.dumps({"schema": TRAJECTORY_SCHEMA, "runs": runs}, indent=2) + "\n"
    )


def test_sketch_memory_ceiling(emit):
    """Hard assertion: tally-structure bytes do not depend on how many
    distinct sources the stream carried — only on the sizing knobs."""
    few, many = (2_000, 5_000) if QUICK else (2_000, 20_000)
    tiers = []
    for sources in (few, many):
        tier = SketchTier(seed=20210401)
        for index in range(sources):
            source = (index * 2654435761) & 0xFFFFFFFF
            # requests tally sources; responses also exercise the
            # heavy-hitter table and victim HLL
            kind = (
                PacketClass.QUIC_REQUEST if index % 4 else PacketClass.QUIC_RESPONSE
            )
            tier.apply([(kind, source, float(index), None, None, 80, None)])
        tiers.append(tier)
    small, large = tiers
    assert large.sources.estimate() > 2 * small.sources.estimate()
    assert small.structure_memory_bytes() == large.structure_memory_bytes()
    for table in large.heavy.values():
        assert len(table) <= table.capacity

    sketch_kib = large.structure_memory_bytes() / 1024
    exact_kib = large.exact_memory_estimate() / 1024
    emit(
        "sketch_memory_ceiling",
        f"distinct sources: {few:,} vs {many:,}\n"
        f"sketch structure bytes: {sketch_kib:.0f} KiB (identical for "
        f"both -- hard ceiling, set at construction)\n"
        f"exact per-source tallies at {many:,} sources: ~{exact_kib:.0f} "
        f"KiB and growing linearly",
    )


def test_sketch_accuracy(emit):
    per_sizing = {
        label: {"tp": 0, "fp": 0, "fn": 0, "rel_errors": []}
        for label, _w, _c in SWEEP
    }
    packets_total = 0
    sketch_bytes = exact_bytes = 0

    for seed in SEEDS:
        scenario = Scenario(
            ScenarioConfig(
                seed=seed,
                duration=SCENARIO_HOURS * HOUR,
                research_sample=1 / 2048,
            )
        )
        # packets() draws fresh randomness per call: capture once so
        # the oracle and every sizing replay the identical stream
        batches = list(batched(scenario.packets(), 512))
        packets_total += sum(len(batch) for batch in batches)

        exact = _monitor(scenario, batches, StreamConfig())
        truth_alerts = _alert_keys(exact)
        truth_counts = exact.state.quic_source_packets

        for label, width, capacity in SWEEP:
            sketch = _monitor(
                scenario,
                batches,
                StreamConfig(
                    mode="sketch",
                    sketch_width=width,
                    sketch_capacity=capacity,
                ),
            )
            got = _alert_keys(sketch)
            bucket = per_sizing[label]
            bucket["tp"] += len(got & truth_alerts)
            bucket["fp"] += len(got - truth_alerts)
            bucket["fn"] += len(truth_alerts - got)
            counts = sketch.sketch.packet_counts
            bucket["rel_errors"].extend(
                (counts.estimate(source) - true) / true
                for source, true in truth_counts.items()
            )
            if label == "default":
                sketch_bytes = sketch.sketch.structure_memory_bytes()
                exact_bytes = max(
                    exact_bytes, sketch.sketch.exact_memory_estimate()
                )

    rows = []
    lines = [
        f"seeds: {list(SEEDS)}  window: {SCENARIO_HOURS:g} h each  "
        f"packets: {packets_total:,}",
        f"{'sizing':>8}  {'cms':>9}  {'topk':>5}  {'prec':>6}  {'rec':>6}  "
        f"{'mean err':>9}  {'p99 err':>8}",
    ]
    for label, width, capacity in SWEEP:
        bucket = per_sizing[label]
        tp, fp, fn = bucket["tp"], bucket["fp"], bucket["fn"]
        precision = tp / (tp + fp) if tp + fp else 1.0
        recall = tp / (tp + fn) if tp + fn else 1.0
        errors = sorted(bucket["rel_errors"])
        mean_error = sum(errors) / len(errors)
        p99_error = errors[int(0.99 * (len(errors) - 1))]
        rows.append(
            {
                "sizing": label,
                "width": width,
                "capacity": capacity,
                "precision": round(precision, 4),
                "recall": round(recall, 4),
                "mean_rel_error": round(mean_error, 4),
                "p99_rel_error": round(p99_error, 4),
            }
        )
        lines.append(
            f"{label:>8}  {width:>5}x4  {capacity:>5}  {precision:>6.3f}  "
            f"{recall:>6.3f}  {mean_error:>9.4f}  {p99_error:>8.4f}"
        )
    lines.append(
        f"default sizing memory: sketch {sketch_bytes / 1024:.0f} KiB "
        f"fixed vs exact tallies ~{exact_bytes / 1024:.0f} KiB at this "
        f"cardinality (exact grows with sources, sketch does not)"
    )
    emit("sketch_accuracy", "\n".join(lines))

    default = rows[-1]
    assert default["sizing"] == "default"
    # acceptance bar: the shipped sizing reproduces the exact monitor's
    # flood alerts across every seed
    assert default["precision"] >= 0.95, rows
    assert default["recall"] >= 0.95, rows
    # count-min never undercounts, and at the default width the
    # aggregate overcount stays small
    assert all(error >= 0 for error in per_sizing["default"]["rel_errors"])
    assert default["mean_rel_error"] <= 0.05, rows

    if not QUICK:
        _append_trajectory(
            {
                "unix_time": round(time.time()),
                "seeds": list(SEEDS),
                "packets": packets_total,
                "default_precision": default["precision"],
                "default_recall": default["recall"],
                "default_mean_rel_error": default["mean_rel_error"],
                "default_p99_rel_error": default["p99_rel_error"],
                "sketch_bytes": sketch_bytes,
                "exact_bytes_estimate": exact_bytes,
                "sweep": rows,
            }
        )
