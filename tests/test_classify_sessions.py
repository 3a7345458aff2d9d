"""Tests for traffic classification and session aggregation."""

import pytest

from repro.net.icmp import IcmpHeader, IcmpType
from repro.net.ipv4 import IPProto, IPv4Header
from repro.net.packet import CapturedPacket
from repro.net.tcp import TcpFlags, TcpHeader
from repro.net.udp import UdpHeader
from repro.util.rng import SeededRng
from repro.quic.connection import ClientConnection, ServerConnection
from repro.core.classify import PacketClass, TrafficClassifier
from repro.core.pipeline import AnalysisConfig, PartialState, merge_states
from repro.core.sessions import Session, Sessionizer, TimeoutSweep

RNG = SeededRng(4242)
QUIC_REQUEST_PAYLOAD = ClientConnection(RNG.child("c")).initial_datagram()
_server = ServerConnection(RNG.child("s"))
QUIC_RESPONSE_PAYLOAD = _server.handle_datagram(
    ClientConnection(RNG.child("c2")).initial_datagram(), 1, 2, now=0.0
)[0].data


def udp_packet(ts=0.0, src=1, dst=2, sport=50000, dport=443, payload=b""):
    return CapturedPacket(
        ts, IPv4Header(src, dst, IPProto.UDP), UdpHeader(sport, dport), payload
    )


def tcp_packet(flags, ts=0.0, src=1):
    return CapturedPacket(
        ts, IPv4Header(src, 2, IPProto.TCP), TcpHeader(443, 999, flags=flags)
    )


def icmp_packet(icmp_type, ts=0.0, src=1):
    return CapturedPacket(
        ts, IPv4Header(src, 2, IPProto.ICMP), IcmpHeader(icmp_type)
    )


# -- classification ----------------------------------------------------------


def test_quic_request_classified():
    classifier = TrafficClassifier()
    result = classifier.classify(udp_packet(dport=443, payload=QUIC_REQUEST_PAYLOAD))
    assert result.packet_class is PacketClass.QUIC_REQUEST
    assert result.dissection.valid


def test_quic_response_classified():
    classifier = TrafficClassifier()
    result = classifier.classify(
        udp_packet(sport=443, dport=50000, payload=QUIC_RESPONSE_PAYLOAD)
    )
    assert result.packet_class is PacketClass.QUIC_RESPONSE


def test_non_quic_udp443_excluded():
    classifier = TrafficClassifier()
    result = classifier.classify(udp_packet(dport=443, payload=b"\x01\x02\x03"))
    assert result.packet_class is PacketClass.NON_QUIC_UDP443
    assert classifier.counters[PacketClass.NON_QUIC_UDP443] == 1


def test_both_ports_443_excluded():
    classifier = TrafficClassifier()
    result = classifier.classify(
        udp_packet(sport=443, dport=443, payload=QUIC_REQUEST_PAYLOAD)
    )
    assert result.packet_class is PacketClass.NON_QUIC_UDP443


def test_other_udp_ignored():
    classifier = TrafficClassifier()
    result = classifier.classify(udp_packet(sport=53, dport=12345, payload=b"dns"))
    assert result.packet_class is PacketClass.OTHER_UDP


def test_port_only_mode_skips_dissection():
    classifier = TrafficClassifier(dissect_payloads=False)
    result = classifier.classify(udp_packet(dport=443, payload=b"not quic at all"))
    assert result.packet_class is PacketClass.QUIC_REQUEST
    assert result.dissection is None


def test_tcp_classification():
    classifier = TrafficClassifier()
    assert (
        classifier.classify(tcp_packet(TcpFlags.SYN | TcpFlags.ACK)).packet_class
        is PacketClass.TCP_BACKSCATTER
    )
    assert (
        classifier.classify(tcp_packet(TcpFlags.RST)).packet_class
        is PacketClass.TCP_BACKSCATTER
    )
    assert (
        classifier.classify(tcp_packet(TcpFlags.SYN)).packet_class
        is PacketClass.TCP_REQUEST
    )
    assert (
        classifier.classify(tcp_packet(TcpFlags.ACK)).packet_class
        is PacketClass.TCP_OTHER
    )


def test_icmp_classification():
    classifier = TrafficClassifier()
    assert (
        classifier.classify(icmp_packet(IcmpType.ECHO_REPLY)).packet_class
        is PacketClass.ICMP_BACKSCATTER
    )
    assert (
        classifier.classify(icmp_packet(IcmpType.ECHO_REQUEST)).packet_class
        is PacketClass.ICMP_OTHER
    )


def test_classifier_counters():
    classifier = TrafficClassifier()
    classifier.classify(udp_packet(dport=443, payload=QUIC_REQUEST_PAYLOAD))
    classifier.classify(tcp_packet(TcpFlags.RST))
    assert classifier.counters[PacketClass.QUIC_REQUEST] == 1
    assert classifier.counters[PacketClass.TCP_BACKSCATTER] == 1


# -- sessionizer -----------------------------------------------------------


def _classified(packet):
    return TrafficClassifier().classify(packet)


def test_sessionizer_groups_by_source_and_timeout():
    sessionizer = Sessionizer("quic-response", timeout=300.0)
    for ts in (0.0, 100.0, 250.0):
        sessionizer.add(_classified(udp_packet(ts=ts, src=7, sport=443, dport=50000, payload=QUIC_RESPONSE_PAYLOAD)))
    # gap > timeout starts a new session
    sessionizer.add(_classified(udp_packet(ts=600.0, src=7, sport=443, dport=50000, payload=QUIC_RESPONSE_PAYLOAD)))
    sessionizer.flush()
    assert len(sessionizer.closed) == 2
    first, second = sessionizer.closed
    assert first.packet_count == 3
    assert first.duration == 250.0
    assert second.packet_count == 1


def test_sessionizer_separate_sources():
    sessionizer = Sessionizer("quic-request", timeout=300.0)
    for src in (1, 2, 3):
        sessionizer.add(_classified(udp_packet(ts=0.0, src=src, payload=QUIC_REQUEST_PAYLOAD)))
    sessionizer.flush()
    assert len(sessionizer.closed) == 3
    assert sessionizer.source_count == 3


def test_sessionizer_rejects_bad_timeout():
    with pytest.raises(ValueError):
        Sessionizer("x", timeout=0)


def test_session_statistics_accumulate():
    sessionizer = Sessionizer("quic-response", timeout=300.0)
    for i, ts in enumerate((0.0, 30.0, 61.0)):
        sessionizer.add(
            _classified(
                udp_packet(
                    ts=ts, src=9, dst=100 + i, sport=443, dport=40000 + i,
                    payload=QUIC_RESPONSE_PAYLOAD,
                )
            )
        )
    sessionizer.flush()
    session = sessionizer.closed[0]
    assert session.packet_count == 3
    assert len(session.dst_ips) == 3
    assert len(session.dst_ports) == 3
    assert session.message_types.get("initial") == 3
    assert session.message_types.get("handshake") == 3
    assert len(session.scids) == 1  # same response payload replayed
    assert session.max_pps == pytest.approx(2 / 60.0)


def test_session_max_pps_on_minute_slots():
    sessionizer = Sessionizer("quic-response", timeout=3000.0)
    # 10 packets in minute 0, 2 in minute 5
    for i in range(10):
        sessionizer.add(_classified(udp_packet(ts=i * 0.1, src=5, sport=443, dport=1000, payload=QUIC_RESPONSE_PAYLOAD)))
    for i in range(2):
        sessionizer.add(_classified(udp_packet(ts=300 + i, src=5, sport=443, dport=1000, payload=QUIC_RESPONSE_PAYLOAD)))
    sessionizer.flush()
    assert sessionizer.closed[0].max_pps == pytest.approx(10 / 60.0)


def test_on_close_callback():
    closed = []
    sessionizer = Sessionizer("quic-request", timeout=10.0, on_close=closed.append)
    sessionizer.add(_classified(udp_packet(ts=0.0, src=1, payload=QUIC_REQUEST_PAYLOAD)))
    sessionizer.add(_classified(udp_packet(ts=100.0, src=1, payload=QUIC_REQUEST_PAYLOAD)))
    sessionizer.flush()
    assert len(closed) == 2
    assert sessionizer.closed == []


# -- timeout sweep -----------------------------------------------------------


def test_timeout_sweep_monotone():
    sweep = TimeoutSweep()
    # source 1: gaps of 30, 90, 120, 600 seconds; the sweep resolves
    # whole minutes, so the 30 s gap is counted and never a boundary
    t = 0.0
    for gap in (0, 30, 90, 120, 600):
        t += gap
        sweep.observe(1, t)
    sweep.observe(2, 5.0)
    assert sweep.source_count == 2
    assert sweep.packet_count == 6
    assert sweep.sessions_at(60) == 5
    assert sweep.sessions_at(90) == 4
    assert sweep.sessions_at(300) == 3
    assert sweep.sessions_at(10000) == 2  # the infinity floor
    with pytest.raises(ValueError, match="60 s"):
        sweep.sessions_at(10)


def test_timeout_sweep_exclude_sources():
    sweep = TimeoutSweep()
    for ts in (0.0, 1000.0):
        sweep.observe(1, ts)
    sweep.observe(2, 0.0)
    assert sweep.sessions_at(60) == 3
    sweep.exclude_sources({1})
    assert sweep.source_count == 1
    assert sweep.sessions_at(60) == 1


def test_timeout_sweep_packet_count_cached_through_exclusion():
    sweep = TimeoutSweep()
    for ts in (0.0, 10.0, 200.0):  # one counted gap, one kept gap
        sweep.observe(1, ts)
    for ts in (0.0, 5.0):
        sweep.observe(2, ts)
    assert sweep.packet_count == 5
    assert sweep.packet_count == 5  # cached, not re-summed
    sweep.exclude_sources({1})
    assert sweep.packet_count == 2
    sweep.observe(3, 1.0)
    sweep.observe(3, 2.0)
    assert sweep.packet_count == 4
    # observations for an excluded source never count
    sweep.observe(1, 30.0)
    assert sweep.packet_count == 4


def test_timeout_sweep_exclude_keeps_sorted_incremental():
    """Excluding a source drops its runs; the next query rebuilds the
    sorted long gaps from the sources left, so another source's gap of
    the same length (90 s here) survives, and a repeat is a no-op."""
    sweep = TimeoutSweep()
    for source, gaps in ((1, (90.0, 120.0)), (2, (90.0, 600.0)), (3, (105.0,))):
        t = 0.0
        sweep.observe(source, t)
        for gap in gaps:
            t += gap
            sweep.observe(source, t)

    def sorted_gaps():
        sweep.sessions_at(60.0)  # any query folds pending gaps in
        return list(sweep._sorted)

    assert sorted_gaps() == [90.0, 90.0, 105.0, 120.0, 600.0]
    sweep.exclude_sources({2})
    assert sorted_gaps() == [90.0, 105.0, 120.0]
    assert sweep.sessions_at(110) == 3  # sources 1,3 + the 120 s gap
    sweep.exclude_sources({2})  # no-op repeat
    assert sorted_gaps() == [90.0, 105.0, 120.0]


def test_timeout_sweep_merge_disjoint_sources():
    a = TimeoutSweep()
    for ts in (0.0, 30.0):
        a.observe(1, ts)
    b = TimeoutSweep()
    for ts in (10.0, 100.0):
        b.observe(2, ts)
    a.merge(b)
    assert a.source_count == 2
    assert a.packet_count == 4
    assert a.sessions_at(75) == 3
    # source 1 again: the runs are joined, not refused as an overlap
    c = TimeoutSweep()
    c.observe(1, 99.0)
    a.merge(c)
    assert (a.source_count, a.packet_count) == (2, 5)
    assert [a.sessions_at(t) for t in (60, 75, 100)] == [4, 3, 2]  # gaps 69, 90
    d = TimeoutSweep()
    d.observe(1, 50.0)  # bridges 30 -> 99: one run for source 1
    a.merge(d)
    assert (a.source_count, a.packet_count) == (2, 6)
    assert [a.sessions_at(t) for t in (60, 75, 100)] == [3, 3, 2]
    assert a._runs[1] == [[0.0, 99.0]]
    # the merged runs are copies: extending source 2 leaves ``b`` as it was
    a.observe(2, 130.0)
    assert b._runs == {2: [[10.0, 10.0], [100.0, 100.0]]}


def _request_state(src, ts, timeout=60.0):
    state = PartialState.initial(AnalysisConfig(session_timeout=timeout))
    classifier = TrafficClassifier()
    state.consume([udp_packet(ts=ts, src=src, payload=QUIC_REQUEST_PAYLOAD)], classifier)
    state.record_classifier(classifier)
    state.close()
    return state


def test_sessionizer_merge_disjoint_sources():
    merged = merge_states(
        [_request_state(1, 0.0), _request_state(2, 5.0)],
        AnalysisConfig(session_timeout=60.0),
    )
    requests = merged.sessionizers[PacketClass.QUIC_REQUEST]
    assert [s.source for s in requests.closed] == [1, 2]
    assert requests.source_count == 2
    assert merged.sessionizers[PacketClass.TCP_BACKSCATTER].closed == []


def test_sessionizer_merge_rejects_mismatched_timeout():
    with pytest.raises(ValueError, match="timeout"):
        merge_states(
            [_request_state(1, 0.0, timeout=60.0)],
            AnalysisConfig(session_timeout=300.0),
        )


def test_timeout_sweep_merge_rejects_excluded_shard():
    target = TimeoutSweep()
    target.observe(1, 0.0)
    shard = TimeoutSweep()
    shard.observe(2, 0.0)
    shard.exclude_sources({2})
    with pytest.raises(ValueError, match="exclud"):
        target.merge(shard)
    assert target.source_count == 1  # target untouched


def test_timeout_sweep_series_and_knee():
    sweep = TimeoutSweep()
    t = 0.0
    # many 2-4 minute gaps, nothing between 5 and 60 minutes
    for i in range(200):
        sweep.observe(1, t)
        t += 150 + (i % 3) * 60
    series = sweep.sweep([1, 5, 10, 30, 60])
    counts = [count for _m, count in series]
    assert counts == sorted(counts, reverse=True)
    assert sweep.knee_minutes() <= 6
