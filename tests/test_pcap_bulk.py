"""Tests for the one pcap writer, :func:`repro.net.pcap.write_records`.

It takes ``(timestamp, wire_bytes)`` pairs (``simulate`` feeds it
``genlane.wire_items``) and flushes them in ~1 MiB chunks.  Its contract
is the classic libpcap layout, byte for byte: the file equals
:func:`tests.oracle.pcap_bytes`, which packs the same packets field by
field with ``struct`` — including the microsecond rounding carry,
across chunk boundaries, and for borrowed/mutable wire buffers.  The
lenient reader must also survive corruption of a written capture.
"""

import io
import struct

import pytest

from repro.faults import corrupt_pcap_bytes
from repro.net import pcap
from repro.net.packet import IPProto
from repro.net.pcap import PcapReader, read_pcap, write_records
from repro.util.rng import SeededRng
from tests.oracle import pcap_bytes
from tests.reference.headers import HeaderPacket, IPv4Header, UdpHeader

#: timestamps chosen to exercise the micros-rounding paths: exact
#: seconds, plain fractions, a fraction that rounds up within the
#: second, and one whose rounding carries into the next second.
EDGE_TIMESTAMPS = (0.0, 1.25, 3.1415926, 7.0000004, 8.9999996, 1e6 + 0.5)


def make_packet(ts: float, src: int = 1, payload: bytes = b"payload"):
    return HeaderPacket(
        ts, IPv4Header(src, 2, IPProto.UDP), UdpHeader(50000, 443), payload
    )


def make_packets(count: int = 50):
    rng = SeededRng(31, "pcap-bulk")
    packets = [make_packet(ts, src=9000 + i) for i, ts in enumerate(EDGE_TIMESTAMPS)]
    packets += [
        make_packet(10.0 + i * 0.123457, src=i + 1, payload=rng.randbytes(i % 97))
        for i in range(count - len(packets))
    ]
    return packets


def test_write_records_matches_per_packet_writer(tmp_path):
    packets = make_packets()
    path = tmp_path / "bulk.pcap"
    count = write_records(path, ((p.timestamp, p.to_bytes()) for p in packets))
    assert count == len(packets)
    assert path.read_bytes() == pcap_bytes(packets)


def test_write_records_across_chunk_flushes(tmp_path, monkeypatch):
    """Identity holds when records straddle the flush threshold."""
    monkeypatch.setattr(pcap, "_WRITE_CHUNK", 64)
    packets = make_packets(200)
    path = tmp_path / "chunked.pcap"
    write_records(path, ((p.timestamp, p.to_bytes()) for p in packets))
    assert path.read_bytes() == pcap_bytes(packets)


def test_write_records_copies_borrowed_buffers(tmp_path):
    """A reused mutable buffer (the gen lane stamps wire bytes into one
    bytearray per template) must be copied before the next item."""
    packets = make_packets()

    def borrowed():
        scratch = bytearray()
        for packet in packets:
            scratch[:] = packet.to_bytes()
            yield packet.timestamp, scratch

    path = tmp_path / "borrowed.pcap"
    write_records(path, borrowed())
    assert path.read_bytes() == pcap_bytes(packets)


@pytest.fixture
def wire_reader(monkeypatch):
    """The reader hands each record body to the reference parse, so the
    packets it yields serialize back to the bytes it read."""
    monkeypatch.setattr(pcap, "CapturedPacket", HeaderPacket)


def test_bulk_written_pcap_round_trips(tmp_path, wire_reader):
    packets = make_packets()
    path = tmp_path / "roundtrip.pcap"
    write_records(path, ((p.timestamp, p.to_bytes()) for p in packets))
    back = list(read_pcap(path))
    assert [p.to_bytes() for p in back] == [p.to_bytes() for p in packets]
    # timestamps agree at pcap resolution (microseconds)
    for original, reread in zip(packets, back):
        assert abs(original.timestamp - reread.timestamp) < 1e-6


def test_lenient_reader_treats_bulk_output_like_per_packet(tmp_path, wire_reader):
    """The lenient reader on a written capture: exact skip counts for
    body damage, resync for header damage."""
    packets = make_packets(200)
    path = tmp_path / "lenient.pcap"
    write_records(path, ((p.timestamp, p.to_bytes()) for p in packets))
    clean = path.read_bytes()
    assert clean == pcap_bytes(packets)

    rng = SeededRng(77, "pcap-bulk-corrupt")
    damaged, corrupted = corrupt_pcap_bytes(
        clean, rng, rate=0.2, kinds=("body",)
    )
    assert corrupted > 0
    reader = PcapReader(io.BytesIO(damaged), lenient=True)
    survivors = list(reader)
    assert reader.corrupt_records == corrupted
    assert len(survivors) == len(packets) - corrupted

    # header damage on record 3: resync recovers the rest of the stream
    out = bytearray(clean)
    offset = 24
    for _ in range(3):
        caplen = struct.unpack_from("<I", out, offset + 8)[0]
        offset += 16 + caplen
    struct.pack_into("<I", out, offset + 8, 0x7FFF_FFFF)
    reader = PcapReader(io.BytesIO(bytes(out)), lenient=True)
    recovered = list(reader)
    assert [p.to_bytes() for p in recovered[-(len(packets) - 4):]] == [
        p.to_bytes() for p in packets[4:]
    ]
    assert reader.corrupt_records >= 1
