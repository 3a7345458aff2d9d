"""Tests for the lenient tail mode of :class:`PcapReader`.

Tail mode treats a truncated trailing item — global header or record —
as "not yet written": the reader rewinds to the start of the
incomplete item and stops, and re-iterating after the file has grown
resumes where it left off.  Strict mode keeps raising, exactly as
before.
"""

import io

import pytest

from repro.net.packet import CapturedPacket, IPProto
from repro.net.pcap import PcapFormatError, PcapReader
from tests.oracle import pcap_bytes
from tests.reference.headers import HeaderPacket, IPv4Header, UdpHeader


def make_packet(ts: float, src: int = 1, dst: int = 2) -> CapturedPacket:
    return HeaderPacket(
        ts, IPv4Header(src, dst, IPProto.UDP), UdpHeader(50000, 443), b"payload"
    )


def test_strict_mode_still_raises_on_truncated_record():
    data = pcap_bytes([make_packet(1.0)])
    stream = io.BytesIO(data[:-3])
    with pytest.raises(PcapFormatError):
        list(PcapReader(stream))


def test_tail_mode_rewinds_on_truncated_record_body():
    data = pcap_bytes([make_packet(1.0), make_packet(2.0)])
    cut = len(data) - 3  # mid-body of the second record
    stream = io.BytesIO()
    stream.write(data[:cut])
    stream.seek(0)
    reader = PcapReader(stream, tail=True)
    first = list(reader)
    assert [p.timestamp for p in first] == [1.0]

    # nothing new yet: another pass yields nothing and stays put
    assert list(reader) == []

    # writer completes the record; the reader resumes seamlessly
    pos = stream.tell()  # rewound to the start of the partial record
    assert pos < cut
    stream.seek(0, io.SEEK_END)
    stream.write(data[cut:])
    stream.seek(pos)
    second = list(reader)
    assert [p.timestamp for p in second] == [2.0]


def test_tail_mode_rewinds_on_truncated_record_header():
    data = pcap_bytes([make_packet(1.0), make_packet(2.0)])
    header_end = 24  # global header
    record = (len(data) - header_end) // 2
    cut = header_end + record + 7  # mid-header of the second record
    stream = io.BytesIO(data[:cut])
    reader = PcapReader(stream, tail=True)
    assert [p.timestamp for p in reader] == [1.0]
    pos = stream.tell()
    stream.seek(0, io.SEEK_END)
    stream.write(data[cut:])
    stream.seek(pos)
    assert [p.timestamp for p in reader] == [2.0]


def test_tail_mode_defers_incomplete_global_header():
    data = pcap_bytes([make_packet(3.5)])
    stream = io.BytesIO(data[:10])
    reader = PcapReader(stream, tail=True)
    assert list(reader) == []
    assert reader.linktype is None

    pos = stream.tell()
    assert pos == 0  # rewound to the start of the partial header
    stream.seek(0, io.SEEK_END)
    stream.write(data[10:])
    stream.seek(pos)
    packets = list(reader)
    assert reader.linktype == 101
    assert [p.timestamp for p in packets] == [3.5]


def test_tail_mode_bad_magic_still_raises():
    stream = io.BytesIO(b"\x00" * 24)
    reader = PcapReader(stream, tail=True)
    with pytest.raises(PcapFormatError):
        list(reader)


def test_strict_mode_unchanged_roundtrip():
    packets = [make_packet(float(i), src=i + 1) for i in range(5)]
    stream = io.BytesIO(pcap_bytes(packets))
    out = list(PcapReader(stream))
    assert [p.timestamp for p in out] == [p.timestamp for p in packets]
    assert [p.src for p in out] == [p.src for p in packets]
