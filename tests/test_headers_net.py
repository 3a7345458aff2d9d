"""Round-trip tests for IPv4/UDP/TCP/ICMP headers and checksums."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net.addresses import parse_ipv4
from repro.net.packet import IPProto, IcmpType, TcpFlags
from tests.reference.headers import (
    IPv4Header,
    IcmpHeader,
    TcpHeader,
    UdpHeader,
    internet_checksum,
    pseudo_header,
)

SRC = parse_ipv4("198.51.100.7")
DST = parse_ipv4("44.12.34.56")


def test_checksum_of_valid_header_is_zero():
    header = IPv4Header(src=SRC, dst=DST, proto=IPProto.UDP)
    wire = header.pack(payload_length=8)
    assert internet_checksum(wire) == 0


def test_ipv4_roundtrip():
    header = IPv4Header(src=SRC, dst=DST, proto=IPProto.TCP, ttl=52, identification=777)
    wire = header.pack(payload_length=20) + b"\x00" * 20
    parsed, payload = IPv4Header.parse(wire)
    assert parsed.src == SRC
    assert parsed.dst == DST
    assert parsed.proto == IPProto.TCP
    assert parsed.ttl == 52
    assert parsed.identification == 777
    assert len(payload) == 20


def test_ipv4_rejects_truncated():
    with pytest.raises(ValueError):
        IPv4Header.parse(b"\x45\x00")


def test_ipv4_rejects_wrong_version():
    header = IPv4Header(src=SRC, dst=DST, proto=IPProto.UDP)
    wire = bytearray(header.pack(0))
    wire[0] = (6 << 4) | 5
    with pytest.raises(ValueError):
        IPv4Header.parse(bytes(wire))


def test_udp_roundtrip_and_pseudo_header_checksum():
    payload = b"quic-bytes"
    header = UdpHeader(src_port=443, dst_port=50000)
    wire = header.pack(payload, SRC, DST)
    parsed, got = UdpHeader.parse(wire)
    assert parsed.src_port == 443
    assert parsed.dst_port == 50000
    assert got == payload
    # Verifying: checksum over pseudo-header + segment must be 0.
    pseudo = pseudo_header(SRC, DST, IPProto.UDP, len(wire))
    assert internet_checksum(pseudo + wire) == 0


def test_udp_rejects_bad_length():
    header = UdpHeader(src_port=1, dst_port=2)
    wire = bytearray(header.pack(b"abc", SRC, DST))
    wire[4:6] = (3).to_bytes(2, "big")  # length < 8
    with pytest.raises(ValueError):
        UdpHeader.parse(bytes(wire))


def test_tcp_roundtrip_flags():
    header = TcpHeader(
        src_port=443,
        dst_port=6000,
        seq=12345,
        ack=999,
        flags=TcpFlags.SYN | TcpFlags.ACK,
    )
    wire = header.pack(b"", SRC, DST)
    parsed, rest = TcpHeader.parse(wire)
    assert parsed.is_syn_ack
    assert not parsed.is_rst
    assert parsed.seq == 12345
    assert rest == b""
    pseudo = pseudo_header(SRC, DST, IPProto.TCP, len(wire))
    assert internet_checksum(pseudo + wire) == 0


def test_tcp_rst_flag():
    header = TcpHeader(src_port=1, dst_port=2, flags=TcpFlags.RST | TcpFlags.ACK)
    parsed, _ = TcpHeader.parse(header.pack(b"", SRC, DST))
    assert parsed.is_rst
    assert not parsed.is_syn_ack


def test_icmp_roundtrip():
    header = IcmpHeader(IcmpType.ECHO_REPLY, identifier=42, sequence=7)
    wire = header.pack(b"payload")
    parsed, payload = IcmpHeader.parse(wire)
    assert parsed.icmp_type == IcmpType.ECHO_REPLY
    assert parsed.identifier == 42
    assert payload == b"payload"
    assert internet_checksum(wire) == 0


@pytest.mark.parametrize(
    "icmp_type,expected",
    [
        (IcmpType.ECHO_REPLY, True),
        (IcmpType.DEST_UNREACHABLE, True),
        (IcmpType.TIME_EXCEEDED, True),
        (IcmpType.ECHO_REQUEST, False),
    ],
)
def test_icmp_backscatter_classification(icmp_type, expected):
    assert IcmpHeader(icmp_type).is_backscatter is expected


@given(
    st.integers(min_value=0, max_value=65535),
    st.integers(min_value=0, max_value=65535),
    st.binary(max_size=64),
)
def test_udp_roundtrip_property(sport, dport, payload):
    wire = UdpHeader(sport, dport).pack(payload, SRC, DST)
    parsed, got = UdpHeader.parse(wire)
    assert (parsed.src_port, parsed.dst_port, got) == (sport, dport, payload)
