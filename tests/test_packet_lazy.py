"""``CapturedPacket.from_bytes``: differential oracle + laziness guard.

``from_bytes`` is a single scalar pass over the wire bytes; ``.ip`` and
``.transport`` are built on demand.  Three things keep that honest:

(a) the eager composition it replaced — ``IPv4Header.parse`` then the
    transport's ``parse`` with the ``ValueError`` fallback — is written
    out here as the reference, and both must agree (same error message,
    or same headers / payload / scalars) on generated, truncated and
    byte-mutated wire bytes;
(b) value semantics (``to_bytes``, ``==``, ``pickle``) do not depend on
    whether the headers were materialised yet;
(c) the hot paths never materialise: with the four ``parse`` methods
    patched to count, a capture runs through the pipeline, the monitor
    and both shard transports with zero calls.
"""

import collections
import dataclasses
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import QuicsandPipeline
from repro.core.pipeline import AnalysisConfig
from repro.net.icmp import IcmpHeader, IcmpType
from repro.net.ipv4 import IPProto, IPv4Header
from repro.net.packet import CapturedPacket
from repro.net.pcap import PcapReader, read_pcap, read_pcap_batches
from repro.net.tcp import TcpFlags, TcpHeader
from repro.net.udp import UdpHeader
from repro.stream import StreamAnalyzer, StreamConfig
from repro.telescope import Scenario, ScenarioConfig
from repro.util.timeutil import HOUR
from tests.oracle import pcap_bytes
from tests.reference.generator import rich_packets

SRC, DST = 0xC6336407, 0x2C0C2238
SCALARS = [slot for slot in CapturedPacket.__slots__ if not slot.startswith("_")]
HEADER_LEN = {type(None): 0, UdpHeader: 8, TcpHeader: 20, IcmpHeader: 8}


# -- (a) the reference: what from_bytes was before it went lazy ---------------


def reference_parse(data: bytes):
    ip, ip_payload = IPv4Header.parse(data)
    transport, payload = None, ip_payload
    try:
        if ip.proto == IPProto.UDP:
            transport, payload = UdpHeader.parse(ip_payload)
        elif ip.proto == IPProto.TCP:
            transport, payload = TcpHeader.parse(ip_payload)
        elif ip.proto == IPProto.ICMP:
            transport, payload = IcmpHeader.parse(ip_payload)
    except ValueError:
        transport, payload = None, ip_payload
    return ip, transport, payload


def every_field(header):
    """All fields, including the ``compare=False`` checksums."""
    return None if header is None else dataclasses.astuple(header)


def assert_agrees(data: bytes):
    """``from_bytes(data)`` against the reference; returns the packet,
    or None when both reject ``data`` with the same message."""
    try:
        ip, transport, payload = reference_parse(data)
    except ValueError as expected:
        with pytest.raises(ValueError) as caught:
            CapturedPacket.from_bytes(1.5, data)
        assert str(caught.value) == str(expected)
        return None
    packet = CapturedPacket.from_bytes(1.5, data)
    eager = CapturedPacket(1.5, ip, transport, payload)
    # the scalar slots, read before anything is materialised
    assert {s: getattr(packet, s) for s in SCALARS} == {
        s: getattr(eager, s) for s in SCALARS
    }
    has_ports = isinstance(transport, (UdpHeader, TcpHeader))
    assert packet.src_port == (transport.src_port if has_ports else None)
    assert packet.dst_port == (transport.dst_port if has_ports else None)
    assert packet.wire_length == (
        ip.total_length or 20 + HEADER_LEN[type(transport)] + len(payload)
    )
    assert packet.payload == payload
    assert every_field(packet.ip) == every_field(ip)
    assert type(packet.transport) is type(transport)
    assert every_field(packet.transport) == every_field(transport)
    assert packet == eager
    return packet


def udp_wire(payload=b"quic-ish payload", sport=50000, dport=443) -> bytes:
    ip = IPv4Header(SRC, DST, IPProto.UDP, ttl=57, identification=4242)
    return CapturedPacket(0.0, ip, UdpHeader(sport, dport), payload).to_bytes()


def tcp_wire(payload=b"") -> bytes:
    header = TcpHeader(443, 6000, seq=77, ack=99, flags=TcpFlags.SYN | TcpFlags.ACK)
    return CapturedPacket(0.0, IPv4Header(SRC, DST, IPProto.TCP), header, payload).to_bytes()


def icmp_wire() -> bytes:
    header = IcmpHeader(IcmpType.DEST_UNREACHABLE, 3, identifier=7, sequence=9)
    return CapturedPacket(0.0, IPv4Header(SRC, DST, IPProto.ICMP), header, b"quoted").to_bytes()


def patched(wire: bytes, at: int, value: int, width: int = 2) -> bytes:
    return wire[:at] + value.to_bytes(width, "big") + wire[at + width :]


def with_ip_options(wire: bytes) -> bytes:
    """IHL 6: four option bytes after the fixed header."""
    total = int.from_bytes(wire[2:4], "big") + 4
    grown = b"\x46" + wire[1:20] + b"\x01\x01\x01\x00" + wire[20:]
    return patched(grown, 2, total)


def with_tcp_options(wire: bytes) -> bytes:
    """Data offset 6: four option bytes after the fixed TCP header."""
    total = int.from_bytes(wire[2:4], "big") + 4
    grown = wire[:32] + b"\x60" + wire[33:40] + b"\x02\x04\x05\xb4" + wire[40:]
    return patched(grown, 2, total)


PINNED = {
    "ihl>5": with_ip_options(udp_wire()),
    "ihl>5 tcp": with_ip_options(tcp_wire(b"data")),
    "tcp data offset>5": with_tcp_options(tcp_wire(b"data")),
    "tcp data offset past the end": patched(tcp_wire(), 32, 0xF0, 1),
    "tcp data offset<5": patched(tcp_wire(), 32, 0x40, 1),
    "total_length shorter than captured": udp_wire() + b"\x00" * 6,
    "total_length longer than captured": patched(udp_wire(), 2, 9000),
    "total_length inside the header": patched(udp_wire(), 2, 12),
    "total_length==0": patched(udp_wire(), 2, 0),
    "udp length shorter than body": patched(udp_wire(), 24, 8 + 3),
    "udp length longer than body": patched(udp_wire(), 24, 4000),
    "udp length<8": patched(udp_wire(), 24, 7),
    "udp header cut": udp_wire()[:26],
    "icmp": icmp_wire(),
    "icmp header cut": icmp_wire()[:25],
    "unknown protocol": patched(udp_wire(), 9, 47, 1),
    "bad version": patched(udp_wire(), 0, 0x65, 1),
    "ihl<5": patched(udp_wire(), 0, 0x44, 1),
    "options cut": with_ip_options(udp_wire())[:22],
    "header cut": udp_wire()[:19],
    "empty": b"",
}


@pytest.mark.parametrize("name", PINNED)
def test_pinned_cases_match_reference(name):
    assert_agrees(PINNED[name])


def test_pinned_cases_mean_what_they_say():
    packet = assert_agrees(PINNED["udp length<8"])
    assert packet.transport is None and packet.src_port is None
    assert packet.payload == PINNED["udp length<8"][20:]
    packet = assert_agrees(PINNED["udp length shorter than body"])
    assert packet.payload == b"qui"
    packet = assert_agrees(PINNED["total_length shorter than captured"])
    assert packet.payload == b"quic-ish payload"
    packet = assert_agrees(PINNED["total_length==0"])
    assert packet.wire_length == 20 + 8 + len(packet.payload)
    packet = assert_agrees(PINNED["tcp data offset>5"])
    assert packet.payload == b"data" and packet.tcp_flags == 0x12
    packet = assert_agrees(PINNED["ihl>5"])
    assert (packet.src_port, packet.dst_port) == (50000, 443)
    packet = assert_agrees(PINNED["unknown protocol"])
    assert packet.transport is None and packet.payload == udp_wire()[20:]
    assert not (packet.is_udp or packet.is_tcp or packet.is_icmp)
    for rejected in ("bad version", "ihl<5", "options cut", "header cut", "empty"):
        assert assert_agrees(PINNED[rejected]) is None


@st.composite
def damaged_wire(draw):
    """A pinned wire image with up to four header-area bytes rewritten,
    then (half the time) cut short."""
    wire = bytearray(draw(st.sampled_from(sorted(PINNED.values()))))
    if wire:
        for _ in range(draw(st.integers(0, 4))):
            index = draw(st.integers(0, min(len(wire), 64) - 1))
            wire[index] = draw(st.integers(0, 255))
    cut = draw(st.one_of(st.just(len(wire)), st.integers(0, len(wire))))
    return bytes(wire[:cut])


@given(damaged_wire())
def test_damaged_wire_matches_reference(data):
    assert_agrees(data)


@given(st.binary(max_size=80))
def test_arbitrary_bytes_match_reference(data):
    assert_agrees(data)


# -- generated traffic -------------------------------------------------------


@pytest.fixture(scope="module")
def scenario():
    return Scenario(ScenarioConfig(seed=11, duration=HOUR / 2, research_sample=1 / 2048))


@pytest.fixture(scope="module")
def packets(scenario):
    # constructor-built packets: the reference generator, not the
    # from_bytes view production gets from Scenario.packets()
    return list(rich_packets(scenario))


@pytest.fixture(scope="module")
def capture(tmp_path_factory, packets):
    path = tmp_path_factory.mktemp("lazy") / "capture.pcap"
    path.write_bytes(pcap_bytes(packets))
    return path


def test_generated_wire_matches_reference_and_round_trips(packets):
    kinds = set()
    for built in packets:
        wire = built.to_bytes()
        parsed = assert_agrees(wire)
        kinds.add(parsed.kind)
        assert CapturedPacket.from_bytes(1.5, wire).to_bytes() == wire
        # constructor-built == parsed, whichever side is asked
        parsed.timestamp = built.timestamp
        assert parsed == built and built == parsed
    assert kinds == {1, 2, 3}


# -- (b) value semantics in both states ---------------------------------------


@pytest.mark.parametrize("wire", [udp_wire(), tcp_wire(b"x"), icmp_wire(), PINNED["udp length<8"]])
def test_equality_and_pickle_in_both_states(wire):
    lazy = CapturedPacket.from_bytes(2.0, wire)
    copy = pickle.loads(pickle.dumps(lazy))
    assert copy._ip is None and copy._transport is None  # shipped unmaterialised
    forced = CapturedPacket.from_bytes(2.0, wire)
    assert forced.ip is forced.ip and forced.transport is forced.transport  # cached
    assert pickle.loads(pickle.dumps(forced)) == forced
    assert copy == forced and forced == copy
    assert copy != CapturedPacket.from_bytes(2.5, wire)
    assert copy != CapturedPacket.from_bytes(2.0, wire[:-1] + b"\xff")
    assert (copy == "packet") is False
    with pytest.raises(TypeError):
        hash(copy)
    assert repr(copy) == repr(forced)


# -- (c) the hot paths stay object-free ---------------------------------------


@pytest.fixture
def parse_calls(monkeypatch):
    """Counts every header object built from wire bytes in this process."""
    calls = collections.Counter()
    for header in (IPv4Header, UdpHeader, TcpHeader, IcmpHeader):

        def counting(data, _parse=header.parse, _name=header.__name__):
            calls[_name] += 1
            return _parse(data)

        monkeypatch.setattr(header, "parse", staticmethod(counting))
    return calls


def correlation(scenario) -> dict:
    return dict(
        registry=scenario.internet.registry,
        census=scenario.internet.census,
        greynoise=scenario.internet.greynoise,
    )


def test_the_guard_counts(parse_calls):
    packet = CapturedPacket.from_bytes(0.0, tcp_wire())
    assert not parse_calls
    assert packet.ip.ttl == 64 and packet.transport.seq == 77
    assert packet.ip.src == SRC and packet.transport.ack == 99
    assert parse_calls == {"IPv4Header": 1, "TcpHeader": 1}


def test_pipeline_over_a_capture_builds_no_headers(scenario, packets, capture, parse_calls):
    pipeline = QuicsandPipeline(**correlation(scenario), config=AnalysisConfig())
    with open(capture, "rb") as stream:
        result = pipeline.process(PcapReader(stream))
    assert result.total_packets == len(packets)
    assert not parse_calls


@pytest.mark.parametrize("mode", ["bounded", "sketch"])
def test_monitor_over_a_capture_builds_no_headers(scenario, packets, capture, parse_calls, mode):
    analyzer = StreamAnalyzer(
        **correlation(scenario),
        config=AnalysisConfig(),
        stream_config=StreamConfig(mode=mode),
    )
    for batch in read_pcap_batches(capture, 512):
        analyzer.process_batch(batch)
    analyzer.finish()
    assert analyzer.telemetry.packets == len(packets)
    assert not parse_calls


@pytest.mark.parametrize("workers", [2], ids=["shm-ring"])
def test_shard_feed_builds_no_headers_in_the_parent(
    scenario, packets, capture, parse_calls, workers
):
    """A packet feed is never partitioned — a ``workers`` setting leaves
    it to the in-process lane, which builds no headers either.  (The id
    names the shared-memory transport this once pinned.)"""
    pipeline = QuicsandPipeline(
        **correlation(scenario), config=AnalysisConfig(workers=workers)
    )
    result = pipeline.process(read_pcap(capture))
    assert result.total_packets == len(packets)
    assert not parse_calls
