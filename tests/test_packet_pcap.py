"""Tests for CapturedPacket wire round-trips and pcap I/O."""

import io
import pickle
import struct

import pytest

from repro.net.addresses import parse_ipv4
from repro.net.icmp import IcmpHeader, IcmpType
from repro.net.ipv4 import IPProto, IPv4Header
from repro.net.packet import CapturedPacket
from repro.net.pcap import (
    LINKTYPE_RAW,
    PcapFormatError,
    PcapReader,
    read_pcap,
    write_records,
)
from repro.net.tcp import TcpFlags, TcpHeader
from repro.net.udp import UdpHeader
from tests.oracle import pcap_bytes

SRC = parse_ipv4("203.0.113.9")
DST = parse_ipv4("44.99.1.2")


def _udp_packet(ts=1617235200.25, payload=b"x" * 30):
    return CapturedPacket(
        ts,
        IPv4Header(SRC, DST, IPProto.UDP),
        UdpHeader(443, 40000),
        payload,
    )


def test_packet_accessors():
    p = _udp_packet()
    assert p.is_udp and not p.is_tcp and not p.is_icmp
    assert p.src_port == 443
    assert p.dst_port == 40000


def test_icmp_packet_has_no_ports():
    p = CapturedPacket(
        0.0, IPv4Header(SRC, DST, IPProto.ICMP), IcmpHeader(IcmpType.ECHO_REPLY)
    )
    assert p.src_port is None
    assert p.dst_port is None


def test_wire_roundtrip_udp():
    p = _udp_packet()
    q = CapturedPacket.from_bytes(p.timestamp, p.to_bytes())
    assert q.src == p.src and q.dst == p.dst
    assert q.src_port == 443
    assert q.payload == p.payload


def test_wire_roundtrip_tcp():
    p = CapturedPacket(
        5.0,
        IPv4Header(SRC, DST, IPProto.TCP),
        TcpHeader(443, 1234, flags=TcpFlags.SYN | TcpFlags.ACK),
    )
    q = CapturedPacket.from_bytes(5.0, p.to_bytes())
    assert q.transport.is_syn_ack


def test_wire_length_matches_serialization():
    p = _udp_packet()
    assert p.wire_length == len(p.to_bytes())


def test_wire_roundtrip_icmp():
    p = CapturedPacket(
        7.0,
        IPv4Header(SRC, DST, IPProto.ICMP),
        IcmpHeader(IcmpType.ECHO_REPLY, identifier=9, sequence=3),
        b"echo-body",
    )
    q = CapturedPacket.from_bytes(7.0, p.to_bytes())
    assert q.is_icmp and q.proto == int(IPProto.ICMP)
    assert q.transport.identifier == 9
    assert q.transport.sequence == 3
    assert q.payload == b"echo-body"


def test_wire_roundtrip_unknown_proto():
    p = CapturedPacket(8.0, IPv4Header(SRC, DST, proto=47), None, b"gre-ish")
    q = CapturedPacket.from_bytes(8.0, p.to_bytes())
    assert q.transport is None
    assert q.payload == b"gre-ish"
    assert q.src_port is None and q.dst_port is None
    assert not (q.is_udp or q.is_tcp or q.is_icmp)


def test_captured_packet_is_slotted():
    # The hot-path record must never grow a per-instance __dict__.
    p = _udp_packet()
    assert not hasattr(p, "__dict__")
    with pytest.raises(AttributeError):
        p.unexpected_attribute = 1


def test_captured_packet_picklable():
    # The parallel runner ships records to worker processes.
    for p in (
        _udp_packet(),
        CapturedPacket(
            1.0, IPv4Header(SRC, DST, IPProto.TCP), TcpHeader(443, 9999)
        ),
        CapturedPacket(
            2.0, IPv4Header(SRC, DST, IPProto.ICMP), IcmpHeader(IcmpType.ECHO_REPLY)
        ),
        CapturedPacket(3.0, IPv4Header(SRC, DST, proto=47), None, b"raw"),
    ):
        q = pickle.loads(pickle.dumps(p))
        assert q == p
        assert q.src_port == p.src_port
        assert (q.is_udp, q.is_tcp, q.is_icmp) == (p.is_udp, p.is_tcp, p.is_icmp)
        assert q.to_bytes() == p.to_bytes()


def test_unknown_transport_keeps_payload():
    ip = IPv4Header(SRC, DST, proto=47)  # GRE, not modeled
    wire = ip.pack(4) + b"abcd"
    q = CapturedPacket.from_bytes(0.0, wire)
    assert q.transport is None
    assert q.payload == b"abcd"


def test_pcap_roundtrip(tmp_path):
    packets = [
        _udp_packet(1617235200.000001),
        CapturedPacket(
            1617235201.5,
            IPv4Header(SRC, DST, IPProto.TCP),
            TcpHeader(443, 9999, flags=TcpFlags.RST),
        ),
        CapturedPacket(
            1617235202.75,
            IPv4Header(SRC, DST, IPProto.ICMP),
            IcmpHeader(IcmpType.ECHO_REPLY),
            b"ping-data",
        ),
    ]
    path = tmp_path / "capture.pcap"
    assert write_records(path, ((p.timestamp, p.to_bytes()) for p in packets)) == 3
    loaded = list(read_pcap(path))
    assert len(loaded) == 3
    assert loaded[0].src_port == 443
    assert loaded[1].transport.is_rst
    assert loaded[2].payload == b"ping-data"
    for original, copy in zip(packets, loaded):
        assert abs(original.timestamp - copy.timestamp) < 1e-5


def test_pcap_linktype_recorded(tmp_path):
    path = tmp_path / "raw.pcap"
    write_records(path, [(1.0, _udp_packet().to_bytes())])
    with open(path, "rb") as stream:
        reader = PcapReader(stream)
        assert reader.linktype == LINKTYPE_RAW


def test_pcap_rejects_bad_magic():
    with pytest.raises(PcapFormatError):
        PcapReader(io.BytesIO(b"\x00" * 24))


def test_pcap_rejects_truncated_header():
    with pytest.raises(PcapFormatError):
        PcapReader(io.BytesIO(b"\xd4\xc3\xb2\xa1"))


def test_pcap_rejects_truncated_record():
    data = pcap_bytes([_udp_packet()])[:-5]  # cut into the last record body
    reader = PcapReader(io.BytesIO(data))
    with pytest.raises(PcapFormatError):
        list(reader)


def test_pcap_big_endian_read():
    # Construct a minimal big-endian pcap by hand.
    p = _udp_packet(3.5)
    body = p.to_bytes()
    global_header = struct.pack(">IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 101)
    record = struct.pack(">IIII", 3, 500000, len(body), len(body)) + body
    reader = PcapReader(io.BytesIO(global_header + record))
    packets = list(reader)
    assert len(packets) == 1
    assert packets[0].src_port == 443
    assert abs(packets[0].timestamp - 3.5) < 1e-6


def test_pcap_timestamp_microsecond_carry(tmp_path):
    # A timestamp whose fractional part rounds to 1e6 µs must carry over.
    p = _udp_packet(ts=99.9999999)
    path = tmp_path / "carry.pcap"
    write_records(path, [(p.timestamp, p.to_bytes())])
    loaded = list(read_pcap(path))
    assert abs(loaded[0].timestamp - 100.0) < 1e-5
