"""Analyzer- and CLI-level tests for the sketch tier
(``StreamConfig(mode="sketch")`` / ``watch --sketch``).

The exact mode is the oracle: at default sizing the space-saving table
never overflows on the monitor scenario, so the sketch tier's episode
tracking must reproduce the exact alert stream bit for bit.
"""

import pickle

import pytest

from repro.core import AnalysisConfig
from repro.stream import (
    AttackEnded,
    FloodAlert,
    StreamAnalyzer,
    StreamConfig,
    StreamResultUnavailable,
)
from repro.telescope import Scenario, ScenarioConfig
from repro.util.batching import batched
from repro.util.timeutil import HOUR
from tests.reference.sketch_merge import merge


@pytest.fixture(scope="module")
def monitor_scenario():
    """One scenario plus a *captured* batch list: ``Scenario.packets()``
    draws fresh randomness per call, so equivalence tests must replay
    the identical stream into every analyzer under comparison."""
    scenario = Scenario(
        ScenarioConfig(seed=11, duration=2 * HOUR, research_sample=1 / 2048)
    )
    return scenario, list(batched(scenario.packets(), 512))


def run_monitor(monitor, stream_config):
    scenario, batches = monitor
    analyzer = StreamAnalyzer(
        registry=scenario.internet.registry,
        census=scenario.internet.census,
        greynoise=scenario.internet.greynoise,
        config=AnalysisConfig(),
        stream_config=stream_config,
    )
    events = list(analyzer.events(iter(batches)))
    return analyzer, events


# -- config ------------------------------------------------------------------


def test_stream_config_mode_validation():
    assert StreamConfig(mode="sketch").mode == "sketch"
    assert StreamConfig().mode == "exact"
    with pytest.raises(ValueError):
        StreamConfig(mode="approximate")


# -- alert equivalence vs the exact oracle -----------------------------------


def alert_key(alert):
    return (
        alert.vector,
        alert.victim_ip,
        alert.start,
        alert.crossed_at,
        alert.packet_count,
        alert.max_pps,
    )


def test_sketch_alerts_match_exact_alerts(monitor_scenario):
    exact, exact_events = run_monitor(monitor_scenario, StreamConfig())
    sketch, sketch_events = run_monitor(
        monitor_scenario, StreamConfig(mode="sketch")
    )

    assert sorted(map(alert_key, sketch.alerts)) == sorted(
        map(alert_key, exact.alerts)
    )
    assert sketch.alerts  # the scenario actually floods

    def ended_key(event):
        return (event.vector, event.victim_ip, event.start, event.category)

    exact_ended = [e for e in exact_events if isinstance(e, AttackEnded)]
    sketch_ended = [e for e in sketch_events if isinstance(e, AttackEnded)]
    assert sorted(map(ended_key, sketch_ended)) == sorted(
        map(ended_key, exact_ended)
    )
    # every alert is eventually closed out
    alerts = [e for e in sketch_events if isinstance(e, FloodAlert)]
    assert len(alerts) == len(sketch_ended)


@pytest.mark.parametrize("seed", [23, 37, 41, 59])
def test_sketch_alerts_and_counts_match_exact_on_more_seeds(seed):
    """The exact oracle on four more scenario seeds, and the count-min
    per-source tallies against the exact ones: never under, and at the
    default sizing at most 5 % over on average."""
    scenario = Scenario(
        ScenarioConfig(seed=seed, duration=2 * HOUR, research_sample=1 / 2048)
    )
    monitor = (scenario, list(batched(scenario.packets(), 512)))
    exact, _ = run_monitor(monitor, StreamConfig())
    sketch, _ = run_monitor(monitor, StreamConfig(mode="sketch"))
    assert exact.alerts
    assert sorted(map(alert_key, sketch.alerts)) == sorted(
        map(alert_key, exact.alerts)
    )
    truth = exact.state.quic_source_packets
    errors = [
        (sketch.sketch.packet_counts.estimate(source) - count) / count
        for source, count in truth.items()
    ]
    assert min(errors) >= 0
    assert sum(errors) / len(errors) <= 0.05


def test_sketch_memory_independent_of_source_count():
    """The acceptance bar: tally memory must not grow with sources.
    Two scenarios with very different cardinality, same sketch bytes."""
    def monitor_for(duration, sample):
        scenario = Scenario(
            ScenarioConfig(seed=23, duration=duration, research_sample=sample)
        )
        return scenario, list(batched(scenario.packets(), 512))

    small, _ = run_monitor(
        monitor_for(0.5 * HOUR, 1 / 4096), StreamConfig(mode="sketch")
    )
    large, _ = run_monitor(
        monitor_for(2 * HOUR, 1 / 1024), StreamConfig(mode="sketch")
    )
    assert large.telemetry.packets > 4 * small.telemetry.packets
    # count-min and HLL bytes are *exactly* fixed at construction
    for attr in ("packet_counts", "byte_counts", "sources", "victims"):
        assert getattr(small.sketch, attr).memory_bytes() == getattr(
            large.sketch, attr
        ).memory_bytes()
    # space-saving bytes are bounded by the filled-to-capacity table
    from repro.stream.sketch import SpaceSaving

    probe = SpaceSaving(capacity=small.sketch.heavy["quic"].capacity)
    for key in range(probe.capacity):
        probe.update(key)
    ceiling = (
        small.sketch.packet_counts.memory_bytes()
        + small.sketch.byte_counts.memory_bytes()
        + small.sketch.sources.memory_bytes()
        + small.sketch.victims.memory_bytes()
        + len(small.sketch.heavy) * probe.memory_bytes()
    )
    assert small.sketch.structure_memory_bytes() <= ceiling
    assert large.sketch.structure_memory_bytes() <= ceiling


# -- result() contract -------------------------------------------------------


def test_sketch_result_raises_structured_error(monitor_scenario):
    analyzer, _ = run_monitor(monitor_scenario, StreamConfig(mode="sketch"))
    with pytest.raises(StreamResultUnavailable) as exc_info:
        analyzer.result()
    error = exc_info.value
    assert error.mode == "sketch"
    message = str(error)
    assert "stream_report()" in message
    assert "analyzer.sketch" in message
    assert "StreamConfig(mode=\"exact\")" in message
    assert isinstance(error, RuntimeError)  # old except-clauses still catch


def test_sketch_telemetry_and_status_line(monitor_scenario):
    analyzer, _ = run_monitor(monitor_scenario, StreamConfig(mode="sketch"))
    telemetry = analyzer.telemetry
    assert telemetry.sketch_memory_bytes > 0
    assert telemetry.distinct_sources_est > 0
    assert telemetry.distinct_victims_est > 0
    line = analyzer.status_line()
    assert "sketch[cms=2048x4 topk=512 hll=2^12]" in line
    assert "mem=" in line and "distinct~" in line
    assert "pruned_sources=" in line and "pruned_hours=" in line
    report = analyzer.stream_report()
    assert "sketch mode" in report
    assert "distinct sources" in report


# -- merge across worker shard counts ----------------------------------------


@pytest.mark.parametrize("workers", [1, 2, 3, 4])
def test_tier_merge_deterministic_across_worker_counts(
    monitor_scenario, workers
):
    """Shard the stream by source across 1..4 workers; merged sketch
    state must be identical regardless of the worker count or merge
    order — the property the parallel runner needs."""
    from repro.stream.sketch import SketchTier, mix64

    serial_analyzer, _ = run_monitor(
        monitor_scenario, StreamConfig(mode="sketch")
    )
    serial = serial_analyzer.sketch

    def fresh():
        return SketchTier(seed=20210401)

    shards = [fresh() for _ in range(workers)]
    classifier = serial_analyzer.classifier
    _scenario, batches = monitor_scenario
    for batch in batches:
        lanes = [[] for _ in range(workers)]
        for packet in batch:
            lanes[mix64(packet.ip.src) % workers].append(packet)
        for tier, lane in zip(shards, lanes):
            if lane:
                tier.consume_lane(lane, classifier)

    merged = fresh()
    for tier in shards:
        merge(merged, tier)
    reverse = fresh()
    for tier in reversed(shards):
        merge(reverse, tier)

    # merge order never matters: forward and reverse are identical
    assert merged.packet_counts._rows == reverse.packet_counts._rows
    assert merged.byte_counts._rows == reverse.byte_counts._rows
    assert merged.sources._registers == reverse.sources._registers
    for vector in merged.heavy:
        assert sorted(merged.heavy[vector].items()) == sorted(
            reverse.heavy[vector].items()
        )
    # HLL register-max and the additive tallies are *exactly* the
    # serial state; conservative-update rows coincide only at workers=1
    # (per-shard suppression differs) but the totals always agree
    assert merged.sources._registers == serial.sources._registers
    assert merged.victims._registers == serial.victims._registers
    assert merged.packet_counts.total == serial.packet_counts.total
    assert merged.byte_counts.total == serial.byte_counts.total
    assert merged.hourly_requests == serial.hourly_requests
    assert merged.hourly_responses == serial.hourly_responses
    if workers == 1:
        assert merged.packet_counts._rows == serial.packet_counts._rows
        for vector in merged.heavy:
            assert sorted(merged.heavy[vector].items()) == sorted(
                serial.heavy[vector].items()
            )


def test_tier_work_is_per_bucket_and_per_changed_register(monkeypatch):
    """Counts, not seconds: on the 1 h mixed scenario the space-saving
    tables take far fewer updates than backscatter observations (one
    per stretch and victim), and the HLL registers are walked only when
    an instance is built or unpickled, never by a per-batch estimate."""
    from repro.stream.sketch import HyperLogLog, SpaceSaving

    updates = []
    walks = []
    update = SpaceSaving.update
    rebuild = HyperLogLog._rebuild

    def counting_update(self, key, count=1):
        updates.append(count)
        return update(self, key, count)

    def counting_rebuild(self):
        walks.append(self)
        rebuild(self)

    monkeypatch.setattr(SpaceSaving, "update", counting_update)
    monkeypatch.setattr(HyperLogLog, "_rebuild", counting_rebuild)
    analyzer = StreamAnalyzer(stream_config=StreamConfig(mode="sketch"))
    tier = analyzer.sketch
    assert walks == [tier.sources, tier.victims]
    mixed = ScenarioConfig(seed=29, duration=HOUR, research_sample=1 / 64)
    for batch in Scenario(mixed).packet_batches(512):
        analyzer.process_batch(batch)
    analyzer.finish()
    observations = sum(summary.total for summary in tier.heavy.values())
    assert observations == sum(updates) > 5000
    assert len(updates) < 0.1 * observations, (len(updates), observations)
    assert analyzer.telemetry.distinct_victims_est > 0
    assert len(walks) == 2
    clone = pickle.loads(pickle.dumps(tier))
    assert walks[2:] == [clone.sources, clone.victims]


def test_analyzer_sketch_state_pickles(monitor_scenario):
    analyzer, _ = run_monitor(monitor_scenario, StreamConfig(mode="sketch"))
    clone = pickle.loads(pickle.dumps(analyzer.sketch))
    assert clone.packet_counts.total == analyzer.sketch.packet_counts.total
    assert clone.on_alert is None


# -- CLI ---------------------------------------------------------------------


def run_cli(argv):
    import io

    from repro.cli import main

    stream = io.StringIO()
    code = main(argv, stream=stream)
    return code, stream.getvalue()


WATCH_FAST = ["--hours", "1.5", "--research-sample", "0.0005", "--seed", "11"]


def test_cli_watch_sketch_mode():
    code, out = run_cli(
        ["watch"] + WATCH_FAST + ["--sketch", "--status-every", "1800"]
    )
    assert code == 0
    assert "[sketch mode]" in out
    assert "[ALERT]" in out
    assert "[ended]" in out
    assert "sketch[cms=" in out
    assert "Streaming monitor summary (sketch mode)" in out


def test_cli_watch_sketch_and_exact_conflict(capsys):
    code, _out = run_cli(["watch"] + WATCH_FAST + ["--sketch", "--exact"])
    assert code == 2
    assert "not allowed with" in capsys.readouterr().err
