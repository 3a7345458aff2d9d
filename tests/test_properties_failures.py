"""Property-based invariants and failure injection for the pipeline.

These tests defend the claims the analysis quietly relies on: the
dissector never crashes on arbitrary bytes, the classifier conserves
packets, sessionization is exactly the per-source gap rule, and the
pipeline survives malformed packets mid-stream.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.packet import IPProto, TcpFlags
from repro.core import QuicsandPipeline
from repro.core.classify import PacketClass, TrafficClassifier
from repro.core.dissect import QuicDissector
from repro.core.pipeline import AnalysisConfig
from repro.core.sessions import Sessionizer, TimeoutSweep
from repro.telescope import Scenario, ScenarioConfig
from repro.util.timeutil import HOUR
from tests.reference.headers import (
    HeaderPacket,
    IPv4Header,
    IcmpHeader,
    TcpHeader,
    UdpHeader,
)


# -- dissector total safety --------------------------------------------------


@settings(max_examples=300)
@given(st.binary(max_size=1400))
def test_dissector_never_raises(payload):
    dissector = QuicDissector()
    dissection = dissector.dissect(payload)
    assert isinstance(dissection.valid, bool)


@settings(max_examples=100)
@given(st.binary(min_size=1, max_size=1400), st.integers(0, 1399), st.integers(0, 255))
def test_dissector_survives_bit_flips_in_real_packets(noise, index, value):
    from repro.util.rng import SeededRng
    from repro.quic.connection import ClientConnection

    wire = bytearray(ClientConnection(SeededRng(1)).initial_datagram())
    wire[index % len(wire)] = value
    dissector = QuicDissector()
    dissector.dissect(bytes(wire))  # must not raise
    dissector.dissect(bytes(noise))


# -- classifier conservation ---------------------------------------------------


def _mixed_packets():
    packets = [
        HeaderPacket(0.0, IPv4Header(1, 2, IPProto.UDP), UdpHeader(443, 1000), b"x"),
        HeaderPacket(1.0, IPv4Header(1, 2, IPProto.UDP), UdpHeader(1000, 443), b"y"),
        HeaderPacket(2.0, IPv4Header(1, 2, IPProto.UDP), UdpHeader(53, 53), b"z"),
        HeaderPacket(3.0, IPv4Header(1, 2, IPProto.TCP), TcpHeader(443, 1, flags=TcpFlags.SYN)),
        HeaderPacket(4.0, IPv4Header(1, 2, IPProto.ICMP), IcmpHeader(0)),
        HeaderPacket(5.0, IPv4Header(1, 2, proto=47), None, b"gre"),
    ]
    return packets


def test_classifier_counts_sum_to_total():
    classifier = TrafficClassifier()
    packets = _mixed_packets()
    for packet in packets:
        classifier.classify(packet)
    assert sum(classifier.counters.values()) == len(packets)


def test_every_packet_gets_exactly_one_class():
    classifier = TrafficClassifier()
    for packet in _mixed_packets():
        result = classifier.classify(packet)
        assert isinstance(result.packet_class, PacketClass)


# -- sessionizer vs a reference implementation ---------------------------------


@settings(max_examples=100)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=3),       # source
            st.floats(min_value=0.01, max_value=900.0),  # gap to next packet
        ),
        min_size=1,
        max_size=60,
    ),
    st.floats(min_value=60.0, max_value=600.0),  # the sweep resolves minutes
)
def test_sessionizer_matches_gap_rule(events, timeout):
    # build a global timeline: per-source monotone timestamps
    timeline = []
    clocks = {1: 0.0, 2: 0.0, 3: 0.0}
    for source, gap in events:
        clocks[source] += gap
        timeline.append((clocks[source], source))
    timeline.sort()

    sessionizer = Sessionizer("quic-response", timeout=timeout)
    sweep = TimeoutSweep()
    classifier = TrafficClassifier(dissect_payloads=False)
    for ts, source in timeline:
        packet = HeaderPacket(
            ts, IPv4Header(source, 9, IPProto.UDP), UdpHeader(443, 5), b""
        )
        sessionizer.add(classifier.classify(packet))
        sweep.observe(source, ts)
    sessionizer.flush()

    # reference: one session per source + one per gap > timeout
    per_source = {}
    for ts, source in timeline:
        per_source.setdefault(source, []).append(ts)
    expected = 0
    for stamps in per_source.values():
        expected += 1 + sum(
            1 for a, b in zip(stamps, stamps[1:]) if b - a > timeout
        )
    assert len(sessionizer.closed) == expected
    assert sweep.sessions_at(timeout) == expected


@settings(max_examples=50)
@given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=2, max_size=50))
def test_session_packet_conservation(timestamps):
    timestamps = sorted(timestamps)
    sessionizer = Sessionizer("quic-response", timeout=100.0)
    classifier = TrafficClassifier(dissect_payloads=False)
    for ts in timestamps:
        packet = HeaderPacket(
            ts, IPv4Header(7, 9, IPProto.UDP), UdpHeader(443, 5), b""
        )
        sessionizer.add(classifier.classify(packet))
    sessionizer.flush()
    assert sum(s.packet_count for s in sessionizer.closed) == len(timestamps)
    for session in sessionizer.closed:
        assert session.duration >= 0
        assert session.max_pps >= 0


# -- pipeline failure injection ---------------------------------------------


def _corrupting_stream(scenario, every=37):
    """Yield scenario packets, corrupting the payload of every N-th."""
    for i, packet in enumerate(scenario.packets()):
        if i % every == 0 and packet.payload:
            corrupted = bytearray(packet.payload)
            corrupted[len(corrupted) // 2] ^= 0xFF
            packet.payload = bytes(corrupted)
        yield packet


def test_pipeline_survives_corrupted_payloads():
    scenario = Scenario(
        ScenarioConfig(seed=5, duration=1 * HOUR, research_sample=1 / 2048)
    )
    pipeline = QuicsandPipeline(
        registry=scenario.internet.registry,
        census=scenario.internet.census,
        config=AnalysisConfig(retry_probe_count=0),
    )
    result = pipeline.process(_corrupting_stream(scenario))
    assert result.total_packets > 0
    # corrupted packets may fall out of QUIC classification but the
    # pipeline completes and still detects attacks
    assert result.quic_detector is not None


def test_pipeline_handles_empty_stream():
    pipeline = QuicsandPipeline(config=AnalysisConfig(retry_probe_count=0))
    result = pipeline.process(iter([]))
    assert result.total_packets == 0
    assert result.quic_attacks == []
    assert result.request_share == 0.0
    assert result.message_type_shares() == {}


def test_pipeline_single_packet_stream():
    pipeline = QuicsandPipeline(config=AnalysisConfig(retry_probe_count=0))
    packet = HeaderPacket(
        100.0, IPv4Header(1, 2, IPProto.UDP), UdpHeader(443, 9), b"\x01"
    )
    result = pipeline.process(iter([packet]))
    assert result.total_packets == 1
    assert result.dissection_failures == 1


def test_pipeline_deterministic_over_same_stream():
    scenario = ScenarioConfig(seed=6, duration=1 * HOUR, research_sample=1 / 2048)

    def run():
        s = Scenario(scenario)
        pipeline = QuicsandPipeline(
            registry=s.internet.registry,
            census=s.internet.census,
            config=AnalysisConfig(retry_probe_count=0),
        )
        return pipeline.process(s.packets())

    a, b = run(), run()
    assert a.total_packets == b.total_packets
    assert len(a.quic_attacks) == len(b.quic_attacks)
    assert a.class_counts == b.class_counts
    assert a.multivector.category_shares() == b.multivector.category_shares()
