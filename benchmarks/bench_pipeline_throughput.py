"""Pipeline throughput: packets/second to generate and to analyze.

Not a paper figure — an engineering benchmark guarding the synthesis
and streaming-pipeline performance (the paper processed 92M packets;
regression here makes full-scale runs impractical).  Measures the
rates below and appends them to the ``benchmarks/out/BENCH_pipeline.json``
trajectory (``schema`` 3; rows are null-backfilled so every revision
carries the same keys) so speedups are tracked across revisions:

- ``generate_pps``  — scenario synthesis on the default path, i.e. the
  columnar generation fast lane (``Scenario.records()``, wire-template
  and Initial-sealer caches warm: the first full pass primes them, the
  timed passes replay them, which is the steady state of any
  multi-round or long-window run).  Mirrored in ``generate_fast_pps``
  (older rows also carry ``generate_rich_pps`` / ``gen_speedup``: the
  rich object generator they timed is a test reference now,
  ``tests/reference/generator.py``, and no longer ships);
- ``analyze_pps``   — the default serial analysis path, i.e. the
  columnar batch fast lane (kept in the legacy ``serial_pps`` field as
  well, so the trajectory stays comparable across revisions);
- ``rich_pps``      — the same stream through the reference walker
  (``PartialState.consume`` + ``TrafficClassifier``, called directly:
  no flag selects it), the per-packet rich-dissection path the lane
  replaced;
- ``fast_speedup``  — ``analyze_pps / rich_pps``; the lane's whole
  point, asserted ``>= 2.0`` in full runs;
- ``e2e_pps``       — generation (fast lane) and default serial
  analysis end to end;
- ``metrics_e2e_pps`` — the same end-to-end path with the ``repro.obs``
  registry recording, guarding the instrumentation's disabled-by-default
  contract: metrics-on must stay within 5% of metrics-off throughput.
  ``metrics_overhead`` is clamped at zero — both raw rates are in the
  record, and a negative overhead is timing noise, not a real speedup.
  The off reference is timed in the same loop as the on rounds
  (alternating), so machine-speed drift between bench phases cannot
  masquerade as instrumentation overhead, and the registry is reset
  per round, so the sampled cache hit rates are live per-run figures
  rather than cross-round accumulations.

The partitioned run (``process_scenario`` at ``workers=2``: the
scenario's units split into two parts, each generated and analyzed in
its own process, the states merged once) is timed against the serial
fused path (``process_scenario`` at ``workers=1``) in alternating
rounds; ``parallel_pps`` is its generate-and-analyze rate and
``speedup`` the ratio of the two.  It is only measured when the machine
actually has multiple CPUs; on a 1-core runner the process start-up
measures the machine, not the code, so both are recorded as ``null``
instead of a misleading number.

``REPRO_BENCH_QUICK=1`` switches to a smoke configuration for CI: a
small packet budget, one timing round, and no trajectory append (quick
rates would pollute the revision history).  Quick mode still times
the lane *and* the reference walker and fails if the lane regresses
below the walker (with headroom for runner noise).
"""

import json
import os
import time
from pathlib import Path

from repro import obs
from repro.core import AnalysisConfig, PartialState, QuicsandPipeline
from repro.core.classify import TrafficClassifier
from repro.telescope import Scenario, ScenarioConfig
from repro.util.batching import batched
from repro.util.timeutil import HOUR

PARALLEL_WORKERS = 2
TRAJECTORY = Path(__file__).parent / "out" / "BENCH_pipeline.json"
TRAJECTORY_SCHEMA = 3
#: every key a schema-3 row carries; older rows are backfilled with
#: nulls so consumers can index columns without per-row key checks.
TRAJECTORY_KEYS = (
    "unix_time",
    "packets",
    "cpus",
    "generate_pps",
    "generate_fast_pps",
    "analyze_pps",
    "rich_pps",
    "fast_speedup",
    "e2e_pps",
    "serial_pps",
    "parallel_workers",
    "parallel_pps",
    "speedup",
    "dissect_cache_hit_rate",
    "metrics_e2e_pps",
    "metrics_overhead",
)

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))
#: quick mode trades fidelity for wall-clock: a shorter window is enough
#: to exercise generation, analysis, and the trajectory plumbing.
SCENARIO_HOURS = 0.25 if QUICK else 1.0
TIMING_ROUNDS = 1 if QUICK else 3


def _scenario_config():
    return ScenarioConfig(duration=SCENARIO_HOURS * HOUR, research_sample=1.0 / 512)


def _pipeline(scenario, workers=1):
    return QuicsandPipeline(
        registry=scenario.internet.registry,
        census=scenario.internet.census,
        greynoise=scenario.internet.greynoise,
        config=AnalysisConfig(workers=workers),
    )


def _run(scenario, packets):
    return _pipeline(scenario).process(iter(packets))


def _run_rich(scenario, packets):
    """The reference walker, driven directly (cf. tests/oracle.py)."""
    pipeline = _pipeline(scenario)
    config = pipeline.config
    state = PartialState.initial(config)
    classifier = TrafficClassifier(dissect_payloads=config.dissect_payloads)
    for batch in batched(iter(packets), config.batch_size):
        state.consume(batch, classifier)
    state.record_classifier(classifier)
    state.close()
    return pipeline.finalize_state(state)


def _append_trajectory(record):
    TRAJECTORY.parent.mkdir(exist_ok=True)
    runs = []
    if TRAJECTORY.exists():
        try:
            runs = json.loads(TRAJECTORY.read_text()).get("runs", [])
        except (ValueError, AttributeError):
            runs = []
    runs.append(record)
    # normalize: every row carries the full schema-3 key set (older
    # rows null-backfilled), extra keys from future revisions are
    # preserved as-is
    runs = [
        {**{key: run.get(key) for key in TRAJECTORY_KEYS}, **run} for run in runs
    ]
    TRAJECTORY.write_text(
        json.dumps({"schema": TRAJECTORY_SCHEMA, "runs": runs}, indent=2) + "\n"
    )


def test_pipeline_throughput(emit, benchmark):
    cpus = os.cpu_count() or 1

    # -- generation: one priming pass (it fills the sealer/template
    # caches and yields the packets the analysis rounds read), then
    # timed warm passes
    packets = list(Scenario(_scenario_config()).packets())
    generate_times = []
    for _ in range(TIMING_ROUNDS):
        start = time.perf_counter()
        count = sum(1 for _ in Scenario(_scenario_config()).records())
        generate_times.append(time.perf_counter() - start)
        assert count == len(packets)
    # best-of-rounds: the minimum is the least noise-contaminated
    # estimate of the code's cost on a shared/1-core runner
    generate_time = min(generate_times)
    generate_rate = len(packets) / generate_time

    # -- serial analysis: reference walker, then the lane ---------------
    scenario = Scenario(_scenario_config())
    rich_result = _run_rich(scenario, packets)  # warm-up
    rich_times = []
    for _ in range(TIMING_ROUNDS):
        start = time.perf_counter()
        rich_result = _run_rich(scenario, packets)
        rich_times.append(time.perf_counter() - start)
    rich_rate = len(packets) / min(rich_times)

    result = benchmark.pedantic(
        lambda: _run(scenario, packets),
        rounds=TIMING_ROUNDS,
        iterations=1,
        warmup_rounds=1,
    )
    analyze_time = benchmark.stats["min"]
    analyze_rate = len(packets) / analyze_time
    fast_speedup = analyze_rate / rich_rate
    e2e_rate = len(packets) / (generate_time + analyze_time)

    # -- observability overhead: paired off/on e2e rounds ---------------
    # Instrumentation publishes at batch/stage boundaries only, so the
    # enabled path must stay within noise of the disabled one.  The
    # reference is timed in the *same* loop, alternating off and on
    # rounds — this container's clock rate drifts between bench phases,
    # and comparing against the headline e2e timed minutes earlier
    # would let that drift masquerade as instrumentation overhead.
    obs_was = obs.enabled()
    recorded = 0
    try:
        off_generate_times = []
        off_analyze_times = []
        metrics_generate_times = []
        metrics_analyze_times = []
        for _ in range(TIMING_ROUNDS):
            obs.disable()
            start = time.perf_counter()
            count = sum(1 for _ in Scenario(_scenario_config()).records())
            off_generate_times.append(time.perf_counter() - start)
            assert count == len(packets)
            start = time.perf_counter()
            _run(scenario, packets)
            off_analyze_times.append(time.perf_counter() - start)

            # reset per round so the sampled telemetry is a live
            # single-run figure, not an accumulation across rounds
            # (the old whole-loop sample froze the hit rate at a
            # stale cross-round constant)
            obs.REGISTRY.reset()
            obs.enable()
            start = time.perf_counter()
            count = sum(1 for _ in Scenario(_scenario_config()).records())
            metrics_generate_times.append(time.perf_counter() - start)
            assert count == len(packets)
            start = time.perf_counter()
            metrics_result = _run(scenario, packets)
            metrics_analyze_times.append(time.perf_counter() - start)
            recorded += obs.REGISTRY.get("repro_pipeline_packets_total").value()
            # memo telemetry lives in the registry (class_counts no
            # longer carries pseudo-entries); rounds are identical, so
            # the last round's sample is the per-run figure
            hits = obs.REGISTRY.get("repro_dissect_cache_hits_total").value()
            misses = obs.REGISTRY.get("repro_dissect_cache_misses_total").value()
            lane_fast = obs.REGISTRY.get("repro_batchlane_fast_total").value()
    finally:
        obs.REGISTRY.reset()
        obs.set_enabled(obs_was)
    off_e2e_rate = len(packets) / (
        min(off_generate_times) + min(off_analyze_times)
    )
    metrics_e2e_rate = len(packets) / (
        min(metrics_generate_times) + min(metrics_analyze_times)
    )
    # clamp at zero: the raw rates carry the signal, and a "negative
    # overhead" is best-of-N timing noise dressed up as a speedup
    overhead = max(0.0, 1.0 - metrics_e2e_rate / off_e2e_rate)
    hit_rate = hits / (hits + misses) if hits + misses else 0.0
    lane_fast_share = lane_fast / misses if misses else 0.0

    # -- partitioned vs serial fused run (only meaningful on real
    # parallel hardware), generation included on both sides ------------
    parallel_rate = None
    speedup = None
    parallel_result = None
    if cpus >= 2:
        times = {1: [], PARALLEL_WORKERS: []}
        for _ in range(TIMING_ROUNDS):
            for workers, rounds in times.items():
                pipeline = _pipeline(scenario, workers)
                start = time.perf_counter()
                parallel_result = pipeline.process_scenario(Scenario(_scenario_config()))
                rounds.append(time.perf_counter() - start)
        parallel_rate = len(packets) / min(times[PARALLEL_WORKERS])
        speedup = min(times[1]) / min(times[PARALLEL_WORKERS])

    if not QUICK:
        _append_trajectory(
            {
                "unix_time": round(time.time()),
                "packets": len(packets),
                "cpus": cpus,
                "generate_pps": round(generate_rate),
                "generate_fast_pps": round(generate_rate),
                "analyze_pps": round(analyze_rate),
                "rich_pps": round(rich_rate),
                "fast_speedup": round(fast_speedup, 3),
                "e2e_pps": round(e2e_rate),
                "serial_pps": round(analyze_rate),
                "parallel_workers": PARALLEL_WORKERS,
                "parallel_pps": None if parallel_rate is None else round(parallel_rate),
                "speedup": None if speedup is None else round(speedup, 3),
                "dissect_cache_hit_rate": round(hit_rate, 4),
                "metrics_e2e_pps": round(metrics_e2e_rate),
                "metrics_overhead": round(overhead, 4),
            }
        )
    parallel_line = (
        f"partitioned throughput (workers={PARALLEL_WORKERS}, generation "
        f"included): {parallel_rate:,.0f} packets/s  ({speedup:.2f}x vs the "
        "serial fused path)\n"
        if parallel_rate is not None
        else f"parallel throughput: skipped (cpus={cpus}; fork overhead "
        "would measure the runner, not the code)\n"
    )
    emit(
        "pipeline_throughput",
        f"packets: {len(packets):,}  (cpus: {cpus}, quick: {QUICK})\n"
        f"generation, gen lane: {generate_rate:,.0f} packets/s\n"
        f"serial analysis, fast lane: {analyze_rate:,.0f} packets/s\n"
        f"serial analysis, reference walker: {rich_rate:,.0f} packets/s\n"
        f"fast-lane speedup: {fast_speedup:.2f}x "
        f"({lane_fast_share * 100:.1f}% of memo misses settled fast)\n"
        f"end-to-end (generate + analyze): {e2e_rate:,.0f} packets/s\n"
        f"end-to-end with metrics on: {metrics_e2e_rate:,.0f} packets/s "
        f"({overhead * 100:.1f}% overhead)\n"
        + parallel_line
        + f"dissector memo hit rate: {hit_rate * 100:.1f}% "
        f"({hits:,} hits / {misses:,} misses)\n"
        f"(paper scale: 92M packets => "
        f"{92e6 / max(analyze_rate, parallel_rate or 0) / 3600:.1f} h at the best rate)",
    )
    assert result.total_packets == len(packets)
    assert rich_result.total_packets == len(packets)
    if parallel_result is not None:
        assert parallel_result.total_packets == len(packets)
    # metrics-on runs record the stream and analyze it identically
    assert recorded == len(packets) * TIMING_ROUNDS
    assert metrics_result.total_packets == len(packets)
    if QUICK:
        # smoke bound, noise headroom included: the fast lane may not
        # fall behind the rich walker it replaces
        assert fast_speedup >= 0.9, (
            f"fast lane {analyze_rate:,.0f} pps regressed below rich path "
            f"{rich_rate:,.0f} pps"
        )
        return  # smoke run: correctness plus the lane bound only
    assert analyze_rate > 5_000
    assert generate_rate > 5_000
    # the headline bound of the fast-lane work: >= 2x the rich path
    assert fast_speedup >= 2.0, (
        f"fast lane {analyze_rate:,.0f} pps is only {fast_speedup:.2f}x the "
        f"rich path's {rich_rate:,.0f} pps (bound: 2.0x)"
    )
    # the observability contract: instrumentation stays within noise
    # (compared against the paired same-loop metrics-off rounds)
    assert metrics_e2e_rate >= 0.95 * off_e2e_rate, (
        f"metrics-on e2e {metrics_e2e_rate:,.0f} pps fell more than 5% below "
        f"paired metrics-off {off_e2e_rate:,.0f} pps"
    )
