"""The traced pass: where a workload's seconds went, layer by layer.

One traced pass per workload, in the workload's own child process:

1. two untraced repetitions (the second, warm one is the base of
   ``obs.trace_overhead_share``);
2. the same repetition with ``repro.obs`` on and the harness's spans
   around every public call (``spans.Tracer``);
3. each layer driven on its own, outside the workload, so its seconds are
   its own and not its consumer's.

A layer is a module of ``repro``.  The generation-side layers
(``telescope.*``, the record kernel, finalization, the report, the state
snapshot) run on the workload's own scenario — 24 h for ``report-day``,
6 h for the rest.  The capture-side layers (``genlane.wire_items``,
``net.pcap``, the packet kernel, the rich kernel, sharding, ``stream``)
always run on the shared 6 h capture: ``report-day`` bypasses them, and a
24 h capture would be 0.7 GB of set-up for numbers no metric of that
workload depends on.
"""

from __future__ import annotations

import gc
import os
import tracemalloc
from collections import deque

from repro import obs
from repro.core import AnalysisConfig, QuicsandPipeline
from repro.core.batchlane import BatchLane
from repro.core.classify import TrafficClassifier
from repro.core.pipeline import PartialState
from repro.core.report import build_report
from repro.net.pcap import PcapReader, read_pcap_batches, write_records
from repro.telescope import Scenario
from repro.telescope.genlane import lane_records, wire_items
from repro.util.batching import batched

from spans import Tracer
from workloads import (
    BATCH,
    Checks,
    analyze_pcap,
    batch_percentiles,
    check_rep,
    correlation,
    fresh_scenario,
    materialise,
    own_config,
    report_fused,
    run_once,
    scenario_config,
    sha,
    timed_reps,
    watch,
)

#: the documented order of ``Scenario.record_units()``
UNIT_GROUPS = ("research", "bots", "tcp_scans", "floods", "misconfig", "stray")
FINALIZE_STAGES = {
    "identify-research": "identify_research_s",
    "collect-sessions": "collect_sessions_s",
    "detect-attacks": "detect_attacks_s",
    "correlate": "correlate_s",
}


def seconds(span: dict) -> float:
    return span["end"] - span["start"]


def count(iterable) -> int:
    return sum(1 for _ in iterable)


def drain(iterable) -> None:
    deque(iterable, maxlen=0)


def stage_seconds(stage: str) -> float:
    return obs.REGISTRY.get("repro_pipeline_stage_seconds").sum(stage=stage)


def generation_layers(config, trace: Tracer, checks: Checks, digest: str) -> dict:
    """Generation, the record kernel, finalization, the report and the state
    snapshot, each on its own, over ``config``'s scenario.  ``digest`` is
    what the fused lane reported for the same scenario."""
    out = {}
    with trace.span("telescope.scenario_build") as span:
        scenario = Scenario(config)
    out["telescope.scenario_build_s"] = seconds(span)

    with trace.span("telescope.records") as span:
        packets = count(scenario.records())
    out["telescope.records_s"] = seconds(span)
    out["telescope.records_per_s"] = packets / seconds(span)
    # kept for the passes below in a pass of its own: a timed pass never
    # retains what it draws, or it would time the allocator
    records = materialise(Scenario(config).records())

    scenario = Scenario(config)
    units = iter(scenario.record_units())
    sizes = dict.fromkeys(UNIT_GROUPS, 1)
    sizes["research"] = len(scenario.internet.research_scanners)
    sizes["floods"] = len(scenario.plan.all_floods)
    alone = 0.0
    for group in UNIT_GROUPS:
        with trace.span(f"telescope.unit.{group}") as span:
            emitted = sum(count(next(units)) for _ in range(sizes[group]))
        out[f"telescope.unit.{group}_s"] = seconds(span)
        out[f"telescope.unit.{group}_records"] = emitted
        alone += seconds(span)
    if next(units, None) is not None:
        raise RuntimeError("Scenario.record_units() no longer has the documented order")
    # heapq.merge plus Telescope.capture_records: what the merged stream
    # costs beyond drawing every unit alone
    out["telescope.merge_tap_s"] = out["telescope.records_s"] - alone

    with trace.span("telescope.genlane.lane_records") as span:
        drain(lane_records(records))
    out["telescope.genlane.lane_records_s"] = seconds(span)

    with trace.span("telescope.packets") as span:
        rich = count(Scenario(config).packets())
    out["telescope.packets_s"] = seconds(span)
    checks.equal("packets() count vs records()", rich, packets)

    with trace.span("telescope.parallel.records_w2") as span:
        sharded = count(Scenario(config).records(workers=2))
    out["telescope.parallel.records_w2_s"] = seconds(span)
    out["telescope.parallel.speedup"] = out["telescope.records_s"] / seconds(span)
    checks.equal("records(workers=2) count vs serial", sharded, packets)

    batches = materialise(batched(lane_records(records), BATCH))
    del records
    pipeline = QuicsandPipeline(**correlation(scenario), config=AnalysisConfig())
    cfg = pipeline.config
    state = PartialState.initial(cfg)
    lane = BatchLane(dissect_payloads=cfg.dissect_payloads)
    with trace.span("core.pipeline.consume_lane_records") as span:
        for batch in batches:
            state.consume_lane_records(batch, lane)
    out["core.pipeline.consume_lane_records_s"] = seconds(span)
    out["core.pipeline.consume_lane_records_pps"] = packets / seconds(span)
    del batches
    state.record_classifier(lane)
    state.close()

    with trace.span("core.pipeline.snapshot") as span:
        payload = state.snapshot_bytes()
    out["core.pipeline.snapshot_s"] = seconds(span)
    out["core.pipeline.state_bytes"] = len(payload)
    with trace.span("core.pipeline.restore") as span:
        PartialState.from_snapshot_bytes(payload)
    out["core.pipeline.restore_s"] = seconds(span)
    del payload

    before = {stage: stage_seconds(stage) for stage in FINALIZE_STAGES}
    with trace.span("core.pipeline.finalize") as span:
        result = pipeline.finalize_state(state)
    out["core.pipeline.finalize_s"] = seconds(span)
    for stage, name in FINALIZE_STAGES.items():
        out[f"core.pipeline.finalize.{name}"] = stage_seconds(stage) - before[stage]
    with trace.span("core.report.build_report") as span:
        text = build_report(result, research_weight=scenario.truth.research_weight)
    out["core.report.build_report_s"] = seconds(span)
    out["core.report.bytes"] = len(text.encode())
    checks.equal("layer-by-layer report digest vs fused lane", sha(text), digest)
    return out


def counter_total(name: str, **labels) -> float:
    return obs.REGISTRY.get(name).value(**labels)


def lane_counters() -> tuple:
    fallbacks = sum(
        counter_total("repro_batchlane_fallback_total", reason=reason)
        for reason in ("parse", "error")
    )
    return (
        counter_total("repro_dissect_cache_hits_total"),
        counter_total("repro_dissect_cache_misses_total"),
        counter_total("repro_batchlane_fast_total"),
        fallbacks,
    )


def capture_layers(spec: dict, feed, trace: Tracer, checks: Checks) -> dict:
    """Stamping, pcap writing and reading, the packet and rich kernels,
    sharding and the three monitor modes, over the shared capture."""
    out = {}
    config = scenario_config(spec["seed"], spec["capture_hours"])
    pcap = spec["pcap"]

    records = materialise(Scenario(config).records())
    with trace.span("telescope.genlane.wire_items") as span:
        drain(wire_items(records))
    out["telescope.genlane.wire_items_s"] = seconds(span)
    scratch = pcap + ".layers"
    try:
        with trace.span("net.pcap.write_records") as span:
            write_records(scratch, wire_items(records))
        out["net.pcap.bytes"] = os.path.getsize(scratch)
    finally:
        if os.path.exists(scratch):
            os.unlink(scratch)
    out["net.pcap.write_records_s"] = seconds(span) - out["telescope.genlane.wire_items_s"]
    del records

    with open(pcap, "rb") as stream, trace.span("net.pcap.read") as span:
        packets = count(PcapReader(stream))
    out["net.pcap.read_s"] = seconds(span)
    out["net.pcap.read_pps"] = packets / seconds(span)
    checks.equal("PcapReader count vs written", packets, spec["pcap_packets"])

    if feed is None:
        feed = materialise(read_pcap_batches(pcap, BATCH))
    cfg = AnalysisConfig()
    state = PartialState.initial(cfg)
    lane = BatchLane(dissect_payloads=cfg.dissect_payloads)
    before = lane_counters()
    with trace.span("core.batchlane.consume_lane") as span:
        for batch in feed:
            state.consume_lane(batch, lane)
    state.record_classifier(lane)
    hits, misses, fast, fallbacks = (
        after - base for after, base in zip(lane_counters(), before)
    )
    out["core.batchlane.consume_lane_s"] = seconds(span)
    out["core.batchlane.consume_lane_pps"] = packets / seconds(span)
    out["core.batchlane.memo_hit_rate"] = hits / (hits + misses)
    out["core.batchlane.fast_share"] = fast / (fast + fallbacks)

    state = PartialState.initial(cfg)
    classifier = TrafficClassifier(dissect_payloads=cfg.dissect_payloads)
    with trace.span("core.pipeline.consume_rich") as span:
        for batch in feed:
            state.consume(batch, classifier)
    out["core.pipeline.consume_rich_s"] = seconds(span)
    del state

    with trace.span("core.pipeline.process_serial") as span:
        serial = analyze_pcap(Scenario(config), pcap)
    merge = obs.REGISTRY.get("repro_parallel_merge_seconds")
    merged_before = merge.sum()
    with trace.span("core.parallel.run_sharded_w2") as sharded_span:
        sharded = analyze_pcap(Scenario(config), pcap, workers=2)
    out["core.parallel.run_sharded_w2_s"] = seconds(sharded_span)
    out["core.parallel.speedup"] = seconds(span) / seconds(sharded_span)
    out["core.parallel.merge_s"] = merge.sum() - merged_before
    checks.equal("run_sharded(workers=2) digest vs serial", sharded["digest"], serial["digest"])

    for mode, pps in (
        ("exact", "stream.analyzer.exact_pps"),
        ("bounded", "stream.analyzer.bounded_pps"),
        ("sketch", "stream.sketch.tier_pps"),
    ):
        scenario = Scenario(config)
        with trace.span(f"stream.watch.{mode}") as span:
            outcome = watch(scenario, feed, mode)
        out[pps] = outcome["packets"] / seconds(span)
        if mode != "exact":
            layer = "stream.sketch" if mode == "sketch" else "stream.analyzer"
            out[f"{layer}.batch_p50_ms"], out[f"{layer}.batch_p95_ms"] = batch_percentiles(
                outcome["batch_s"]
            )
        if mode == "bounded":
            out["stream.analyzer.alerts"] = outcome["alerts"]
            out["stream.analyzer.evicted_sessions"] = outcome["telemetry"].evicted_sessions
            out["stream.analyzer.tracked_sources_peak"] = outcome["tracked_peak"]
        if mode == "sketch":
            out["stream.sketch.memory_bytes"] = outcome["telemetry"].sketch_memory_bytes
        outcome = None
        # allocation peak in a pass of its own: tracemalloc hooks every
        # allocation, so a traced pass is never a timed one
        scenario = Scenario(config)
        gc.collect()
        tracemalloc.start()
        try:
            watch(scenario, feed, mode)
            out[f"stream.analyzer.state_kb.{mode}"] = tracemalloc.get_traced_memory()[1] / 1024
        finally:
            tracemalloc.stop()
    return out


#: the layers each workload's timed operation passes through; their seconds,
#: each measured alone, should add up to the untraced wall time
ON_PATH = {
    "report-day": (
        "telescope.records_s",
        "telescope.genlane.lane_records_s",
        "core.pipeline.consume_lane_records_s",
        "core.pipeline.finalize_s",
        "core.report.build_report_s",
    ),
    "pcap-6h": (
        "net.pcap.read_s",
        "core.batchlane.consume_lane_s",
        "core.pipeline.finalize_s",
        "core.report.build_report_s",
    ),
    "watch-bounded-6h": ("stream.watch.bounded",),
    "watch-sketch-6h": ("stream.watch.sketch",),
}


def traced_pass(spec: dict, feed) -> dict:
    """The child's work under ``--trace``; see the module docstring."""
    # two, so that the base is as warm as the traced repetition after it
    result = timed_reps(dict(spec, reps=2, seconds=None), feed)
    base = result["wall_s"][-1]
    checks = Checks()
    trace = Tracer()
    obs.enable()
    try:
        scenario = fresh_scenario(spec)
        with trace.span(spec["workload"]) as span:
            outcome = run_once(spec, scenario, feed, trace)
        in_situ = trace.self_times()
        check_rep(spec, checks, outcome, result)
        with trace.span("layers"):
            config = own_config(spec)
            fused = outcome if spec["workload"] == "report-day" else report_fused(Scenario(config))
            layers = generation_layers(config, trace, checks, fused["digest"])
            layers.update(capture_layers(spec, feed, trace, checks))
    finally:
        obs.disable()
    layers["obs.trace_overhead_share"] = (seconds(span) - base) / base
    alone = {**layers, **trace.self_times()}
    result["attempted"] += checks.attempted
    result["failures"] += checks.failures
    result.update(
        traced_wall_s=seconds(span),
        in_situ_self_s=in_situ,
        accounted_share=sum(alone[name] for name in ON_PATH[spec["workload"]]) / base,
        per_layer=layers,
        spans=trace.spans,
    )
    return result
