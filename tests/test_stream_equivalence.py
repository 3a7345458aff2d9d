"""Streaming ≡ batch: the correctness anchor of :mod:`repro.stream`.

On any finite capture the exact-mode :class:`StreamAnalyzer` must
produce a ``PipelineResult`` identical to the batch
:class:`QuicsandPipeline` — sessions, flood attacks, multi-vector
categories, hourly series, and the rendered report — for any session
timeout, seed, and batch size.  This pins the watermark-expiry argument
the same way ``tests/test_parallel.py`` pins serial ≡ parallel.
"""

import pytest

from repro.core import AnalysisConfig, QuicsandPipeline
from repro.core.report import build_report
from repro.stream import AttackEnded, FloodAlert, StreamAnalyzer
from repro.telescope import Scenario, ScenarioConfig
from repro.util.batching import batched
from repro.util.timeutil import HOUR
from tests.oracle import monitor_events


def make_scenario(seed):
    return Scenario(
        ScenarioConfig(seed=seed, duration=1 * HOUR, research_sample=1 / 2048)
    )


def correlation(scenario):
    return dict(
        registry=scenario.internet.registry,
        census=scenario.internet.census,
        greynoise=scenario.internet.greynoise,
    )


def run_batch(scenario, packets, timeout):
    pipeline = QuicsandPipeline(
        **correlation(scenario), config=AnalysisConfig(session_timeout=timeout)
    )
    return pipeline.process(iter(packets))


def run_stream(scenario, packets, timeout, batch_size):
    analyzer = StreamAnalyzer(
        **correlation(scenario), config=AnalysisConfig(session_timeout=timeout)
    )
    events = monitor_events(analyzer, batched(iter(packets), batch_size))
    return analyzer.result(), events


def assert_results_identical(batch, stream):
    assert batch.total_packets == stream.total_packets
    assert batch.window_start == stream.window_start
    assert batch.window_end == stream.window_end

    # session lists (dataclass equality, canonical order)
    assert batch.request_sessions == stream.request_sessions
    assert batch.response_sessions == stream.response_sessions
    assert batch.tcp_sessions == stream.tcp_sessions
    assert batch.icmp_sessions == stream.icmp_sessions

    # attacks and multi-vector categories
    assert batch.quic_attacks == stream.quic_attacks
    assert batch.common_attacks == stream.common_attacks
    assert batch.multivector.by_category() == stream.multivector.by_category()
    assert batch.multivector.overlap_shares == stream.multivector.overlap_shares
    assert batch.multivector.sequential_gaps == stream.multivector.sequential_gaps

    # hourly series and research identification
    assert batch.hourly_requests == stream.hourly_requests
    assert batch.hourly_responses == stream.hourly_responses
    assert batch.hourly_research == stream.hourly_research
    assert batch.hourly_other_quic == stream.hourly_other_quic
    assert batch.research_sources == stream.research_sources
    assert batch.research_packets == stream.research_packets

    # timeout sweep (Figure 4)
    assert batch.timeout_sweep.sweep(range(1, 61)) == stream.timeout_sweep.sweep(
        range(1, 61)
    )

    assert batch.class_counts == stream.class_counts


@pytest.mark.parametrize(
    "seed,timeout",
    [(11, 300.0), (11, 120.0), (7, 300.0), (7, 600.0)],
)
def test_stream_matches_batch(seed, timeout):
    scenario = make_scenario(seed)
    packets = list(scenario.packets())
    batch = run_batch(scenario, packets, timeout)
    stream, events = run_stream(scenario, packets, timeout, batch_size=256)
    assert_results_identical(batch, stream)

    # the rendered report is bit-identical
    weight = scenario.truth.research_weight
    assert build_report(batch, research_weight=weight) == build_report(
        stream, research_weight=weight
    )

    # live alerts are one-to-one with the batch-detected attacks: every
    # final attack crossed the thresholds while open (conditions are
    # monotone), and every crossing survives to the final detection
    alerts = [e for e in events if isinstance(e, FloodAlert)]
    ended = [e for e in events if isinstance(e, AttackEnded)]
    alert_keys = {(a.vector, a.victim_ip, a.start) for a in alerts}
    ended_keys = {(a.vector, a.victim_ip, a.start) for a in ended}
    attack_keys = {
        (a.vector, a.victim_ip, a.start)
        for a in batch.quic_attacks + batch.common_attacks
    }
    assert alert_keys == attack_keys
    assert ended_keys == attack_keys

    # alerts fire at (or before) the batch boundary after the crossing,
    # never before the crossing itself
    for alert in alerts:
        assert alert.emitted_at is not None
        assert alert.latency >= 0.0
        assert alert.start <= alert.crossed_at <= alert.emitted_at


def test_batch_size_independence():
    scenario = make_scenario(11)
    packets = list(scenario.packets())
    small, _ = run_stream(scenario, packets, timeout=300.0, batch_size=64)
    odd, _ = run_stream(scenario, packets, timeout=300.0, batch_size=997)
    assert_results_identical(small, odd)


def test_attack_ended_matches_final_attack_stats():
    scenario = make_scenario(11)
    packets = list(scenario.packets())
    batch = run_batch(scenario, packets, timeout=300.0)
    _, events = run_stream(scenario, packets, timeout=300.0, batch_size=256)
    final = {
        (a.vector, a.victim_ip, a.start): a
        for a in batch.quic_attacks + batch.common_attacks
    }
    for event in events:
        if not isinstance(event, AttackEnded):
            continue
        attack = final[(event.vector, event.victim_ip, event.start)]
        assert event.end == attack.end
        assert event.packet_count == attack.packet_count
        assert event.max_pps == attack.max_pps
