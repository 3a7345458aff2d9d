"""Stress combinations: toggled scenarios, lossy resumption, odd telescopes."""

import pytest

from repro.core import AnalysisConfig, QuicsandPipeline
from repro.core.classify import PacketClass, TrafficClassifier
from repro.internet.topology import TopologyConfig
from repro.quic.connection import ClientConnection, ServerConnection
from repro.quic.resumption import SessionCache
from tests.reference.transport import ConnectionRunner
from repro.telescope import Scenario, ScenarioConfig
from repro.util.rng import SeededRng
from repro.util.timeutil import HOUR


def test_resumption_over_lossy_link():
    """Token + ticket collected over a lossy link, then 0-RTT resumption
    over another lossy link — the full post-handshake machinery under
    packet loss."""
    completed = 0
    for seed in range(10):
        rng = SeededRng(9000 + seed)
        cache = SessionCache()
        server = ServerConnection(rng.child("server"), retry_enabled=True)
        first = ClientConnection(
            rng.child("first"), server_name="svc.example", session_cache=cache
        )
        ConnectionRunner(first, server, rng.child("link1"), loss=0.15).run()
        state = cache.lookup("svc.example")
        if state is None or not state.session_ticket:
            continue  # the post-handshake datagram was lost: acceptable
        second = ClientConnection(
            rng.child("second"),
            server_name="svc.example",
            resumption=state,
            early_data=b"GET /",
        )
        runner = ConnectionRunner(second, server, rng.child("link2"), loss=0.15)
        runner.run()
        if second.state == "connected" and second.used_0rtt:
            completed += 1
    assert completed >= 6


def test_scenario_attacks_only():
    config = ScenarioConfig(
        seed=31,
        duration=2 * HOUR,
        include_research=False,
        include_bots=False,
        include_tcp_scans=False,
        include_misconfig=False,
        include_stray=False,
    )
    scenario = Scenario(config)
    classifier = TrafficClassifier()
    for packet in scenario.packets():
        classifier.classify(packet)
    assert classifier.counters[PacketClass.QUIC_REQUEST] == 0
    assert classifier.counters[PacketClass.QUIC_RESPONSE] > 0
    assert classifier.counters[PacketClass.NON_QUIC_UDP443] == 0


def test_scenario_research_only_pipeline():
    config = ScenarioConfig(
        seed=32,
        duration=2 * HOUR,
        research_sample=1 / 1024,
        include_bots=False,
        include_tcp_scans=False,
        include_attacks=False,
        include_misconfig=False,
        include_stray=False,
    )
    scenario = Scenario(config)
    pipeline = QuicsandPipeline(
        registry=scenario.internet.registry,
        config=AnalysisConfig(retry_probe_count=0),
    )
    result = pipeline.process(scenario.packets())
    assert result.research_share == 1.0
    assert result.quic_attacks == []
    assert result.request_share == 0.0  # everything sanitized away


def test_research_threshold_controls_identification():
    config = ScenarioConfig(
        seed=33, duration=2 * HOUR, research_sample=1 / 1024,
        include_attacks=False, include_misconfig=False, include_stray=False,
        include_tcp_scans=False,
    )
    scenario = Scenario(config)
    packets = list(scenario.packets())
    low = QuicsandPipeline(
        registry=scenario.internet.registry,
        config=AnalysisConfig(research_min_packets=100, retry_probe_count=0),
    ).process(iter(packets))
    high = QuicsandPipeline(
        registry=scenario.internet.registry,
        config=AnalysisConfig(research_min_packets=10**9, retry_probe_count=0),
    ).process(iter(packets))
    assert len(low.research_sources) >= 1
    assert len(high.research_sources) == 0  # threshold too high: none found


def test_small_telescope_end_to_end():
    """A /16 darknet: the machinery runs; detection is starved, matching
    the A5 ablation."""
    config = ScenarioConfig(
        seed=34,
        duration=2 * HOUR,
        research_sample=1 / 64,
        topology=TopologyConfig(telescope_cidr="44.0.0.0/16"),
    )
    scenario = Scenario(config)
    assert scenario.telescope.extrapolation_factor == 65536
    pipeline = QuicsandPipeline(
        registry=scenario.internet.registry,
        census=scenario.internet.census,
        config=AnalysisConfig(retry_probe_count=0),
    )
    result = pipeline.process(scenario.packets())
    assert result.total_packets > 0
    for packet_class in ("quic-request", "quic-response"):
        assert result.class_counts.get(packet_class, 0) >= 0  # pipeline intact


def test_scenario_seeds_give_different_plans():
    a = Scenario(ScenarioConfig(seed=41, duration=2 * HOUR))
    b = Scenario(ScenarioConfig(seed=42, duration=2 * HOUR))
    starts_a = [f.start for f in a.plan.quic_floods]
    starts_b = [f.start for f in b.plan.quic_floods]
    assert starts_a != starts_b
