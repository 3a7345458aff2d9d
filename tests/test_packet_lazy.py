"""``CapturedPacket.from_bytes``: differential oracle + lean-record pins.

``from_bytes`` is the package's one parser: a single scalar pass over
the wire bytes into a flat record of twelve slots.  Four things keep it
honest:

(a) the header codecs it replaced (``tests/reference/headers.py``) parse
    header by header — ``IPv4Header.parse`` then the transport's
    ``parse`` with the ``ValueError`` fallback — and both must agree
    (same error message, or the same twelve slots and payload) on
    generated, truncated and byte-mutated wire bytes;
(b) value semantics (``==``, ``pickle``, ``repr``) do not depend on
    whether a record was parsed or built from its scalars;
(c) parsed payloads are shared: equal payloads parsed recently are one
    object, through one bounded memo, and nothing in (b) changes;
(d) the record stays lean: twelve scalar slots, nothing derivable
    stored twice.
"""

import io
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cli import main
from repro.net.packet import CapturedPacket, IcmpType, IPProto, TcpFlags, _shared_payload
from repro.net.pcap import read_pcap
from repro.telescope import Scenario, ScenarioConfig
from repro.util.batching import MEMO_ENTRIES
from repro.util.timeutil import HOUR
from tests.reference.generator import rich_packets
from tests.reference.headers import (
    HeaderPacket,
    IcmpHeader,
    IPv4Header,
    TcpHeader,
    UdpHeader,
)

SRC, DST = 0xC6336407, 0x2C0C2238
SLOTS = CapturedPacket.__slots__


# -- (a) the reference: the header codecs, parse by parse --------------------


def scalars(packet) -> dict:
    return {slot: getattr(packet, slot) for slot in SLOTS}


def assert_agrees(data: bytes):
    """``from_bytes(data)`` against the reference; returns the packet,
    or None when both reject ``data`` with the same message."""
    try:
        reference = HeaderPacket.from_bytes(1.5, data)
    except ValueError as expected:
        with pytest.raises(ValueError) as caught:
            CapturedPacket.from_bytes(1.5, data)
        assert str(caught.value) == str(expected)
        return None
    packet = CapturedPacket.from_bytes(1.5, data)
    # field by field: every slot the record keeps, read off the headers
    assert scalars(packet) == scalars(reference)
    ip, transport = reference.ip, reference.transport
    assert (packet.src, packet.dst, packet.proto) == (ip.src, ip.dst, ip.proto)
    assert packet.total_length == ip.total_length
    has_ports = isinstance(transport, (UdpHeader, TcpHeader))
    assert packet.src_port == (transport.src_port if has_ports else None)
    assert packet.dst_port == (transport.dst_port if has_ports else None)
    tcp = isinstance(transport, TcpHeader)
    assert packet.tcp_flags == (int(transport.flags) if tcp else 0)
    icmp = isinstance(transport, IcmpHeader)
    assert packet.icmp_type == (transport.icmp_type if icmp else 0)
    assert packet.icmp_code == (transport.code if icmp else 0)
    assert packet.wire_length == reference.wire_length
    assert packet.payload == reference.payload
    return packet


def udp_wire(payload=b"quic-ish payload", sport=50000, dport=443) -> bytes:
    ip = IPv4Header(SRC, DST, IPProto.UDP, ttl=57, identification=4242)
    return HeaderPacket(0.0, ip, UdpHeader(sport, dport), payload).to_bytes()


def tcp_wire(payload=b"") -> bytes:
    header = TcpHeader(443, 6000, seq=77, ack=99, flags=TcpFlags.SYN | TcpFlags.ACK)
    return HeaderPacket(0.0, IPv4Header(SRC, DST, IPProto.TCP), header, payload).to_bytes()


def icmp_wire(payload=b"quoted") -> bytes:
    header = IcmpHeader(IcmpType.DEST_UNREACHABLE, 3, identifier=7, sequence=9)
    return HeaderPacket(0.0, IPv4Header(SRC, DST, IPProto.ICMP), header, payload).to_bytes()


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
    assert packet.kind == 0 and packet.src_port is None
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
    assert packet.kind == 0 and packet.payload == udp_wire()[20:]
    assert packet.proto == 47
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
def packets():
    # header-built packets: the reference generator, not the from_bytes
    # view production gets from Scenario.packets()
    scenario = Scenario(ScenarioConfig(seed=11, duration=HOUR / 2, research_sample=1 / 2048))
    return list(rich_packets(scenario))


def test_generated_wire_matches_reference_and_round_trips(packets):
    kinds = set()
    for built in packets:
        wire = built.to_bytes()
        parsed = assert_agrees(wire)
        kinds.add(parsed.kind)
        assert HeaderPacket.from_bytes(built.timestamp, wire) == built
        assert HeaderPacket.from_bytes(1.5, wire).to_bytes() == wire
        # header-built and parsed carry the same scalars
        parsed.timestamp = built.timestamp
        assert scalars(parsed) == scalars(built)
    assert kinds == {1, 2, 3}


# -- (b) value semantics, parsed or built ---------------------------------------


@pytest.mark.parametrize("wire", [udp_wire(), tcp_wire(b"x"), icmp_wire(), PINNED["udp length<8"]])
def test_equality_and_pickle_in_both_states(wire):
    parsed = CapturedPacket.from_bytes(2.0, wire)
    built = CapturedPacket(**scalars(parsed))
    copy = pickle.loads(pickle.dumps(parsed))
    assert scalars(copy) == scalars(parsed)
    assert copy == built and built == copy
    assert copy != CapturedPacket.from_bytes(2.5, wire)
    assert copy != CapturedPacket.from_bytes(2.0, wire[:-1] + b"\xff")
    for slot in SLOTS:  # every slot takes part in ==
        changed = CapturedPacket(**{**scalars(built), slot: -1})
        assert changed != built and built != changed
    assert (copy == "packet") is False
    # a header-built packet is a different record type: never equal
    assert (HeaderPacket.from_bytes(2.0, wire) == parsed) is False
    with pytest.raises(TypeError):
        hash(copy)
    assert repr(copy) == repr(built)


# -- (c) parsed payloads are shared -------------------------------------------


@pytest.mark.parametrize(
    "wire",
    # a one-byte payload would prove nothing: CPython caches those
    [udp_wire(), tcp_wire(b"tcp data"), icmp_wire(), PINNED["udp length<8"]],
    ids=["udp", "tcp", "icmp", "udp-length-below-8"],
)
def test_equal_wire_bytes_share_one_payload(wire):
    a = CapturedPacket.from_bytes(3.0, wire)
    b = CapturedPacket.from_bytes(3.0, bytes(bytearray(wire)))  # equal, not the same
    assert a.payload is b.payload
    assert a == b and scalars(a) == scalars(HeaderPacket.from_bytes(3.0, wire))
    assert pickle.loads(pickle.dumps(b)) == a
    assert repr(a) == repr(b)
    other = CapturedPacket.from_bytes(3.0, wire[:-1] + bytes([wire[-1] ^ 1]))
    assert other.payload is not a.payload and other != a


def test_payload_memo_is_one_bounded_lru():
    assert _shared_payload.cache_parameters() == {"maxsize": MEMO_ENTRIES, "typed": False}
    _shared_payload.cache_clear()
    for i in range(MEMO_ENTRIES + 8):
        CapturedPacket.from_bytes(0.0, udp_wire(i.to_bytes(4, "big")))
    info = _shared_payload.cache_info()
    assert (info.misses, info.currsize) == (MEMO_ENTRIES + 8, MEMO_ENTRIES)


@pytest.fixture(scope="module")
def simulated_hour(tmp_path_factory):
    """What ``simulate --hours 1`` writes: scanners replay templates."""
    path = tmp_path_factory.mktemp("shared") / "hour.pcap"
    argv = ["simulate", "--hours", "1", "--research-sample", "0.0005", "--out", str(path)]
    assert main(argv, stream=io.StringIO()) == 0
    return path


def test_a_capture_held_as_packets_keeps_one_object_per_memo_miss(simulated_hour):
    _shared_payload.cache_clear()
    held = [packet for packet in read_pcap(simulated_hour) if packet.payload]
    misses = _shared_payload.cache_info().misses
    distinct = len({id(packet.payload) for packet in held})
    assert distinct <= misses < len(held)


# -- (d) the record stays lean ------------------------------------------------


def test_slots_are_pinned():
    # every slot weighs on each held packet, and one that restates
    # another (a per-protocol flag restating proto) buys nothing
    assert set(CapturedPacket.__slots__) == {
        "timestamp", "payload", "src", "dst", "proto", "total_length",
        "kind", "src_port", "dst_port", "tcp_flags", "icmp_type", "icmp_code",
    }
    assert len(CapturedPacket.__slots__) == 12
