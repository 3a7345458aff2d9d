"""Tests for the lenient interior-corruption mode of the pcap layer.

Tail mode (``tests/test_pcap_tail.py``) handles a *growing* file;
lenient mode handles a *damaged* one: a corrupt record header triggers
a windowed resync scan to the next plausible record, an unparseable
record body is skipped, and either way ``corrupt_records`` counts what
was dropped instead of the whole capture being lost.  ``follow_pcap``
surfaces the same count as deltas to the streaming monitor and the
``repro_pcap_corrupt_records_total`` metric.

Fixtures are built with :func:`repro.faults.corrupt_pcap_bytes`, the
seeded pcap-level corruptor that `repro.faults` exposes for exactly
this kind of test.
"""

import io
import struct

import pytest

from repro.faults import corrupt_pcap_bytes
from repro.net.ipv4 import IPProto, IPv4Header
from repro.net.packet import CapturedPacket
from repro.net.pcap import PcapFormatError, PcapReader, read_pcap
from repro.net.udp import UdpHeader
from repro.stream.feeds import follow_pcap
from repro.util.rng import SeededRng
from tests.oracle import pcap_bytes


def make_packet(ts: float, src: int = 1, dst: int = 2) -> CapturedPacket:
    return CapturedPacket(
        ts, IPv4Header(src, dst, IPProto.UDP), UdpHeader(50000, 443), b"payload"
    )


def capture_bytes(count: int = 10) -> bytes:
    return pcap_bytes(make_packet(float(i), src=i + 1) for i in range(count))


def corrupt_one(data: bytes, index: int, kind: str) -> bytes:
    """Deterministically corrupt record ``index`` (0-based) in ``kind``."""
    offset = 24
    for _ in range(index):
        caplen = struct.unpack_from("<I", data, offset + 8)[0]
        offset += 16 + caplen
    out = bytearray(data)
    if kind == "header":
        struct.pack_into("<I", out, offset + 8, 0x7FFF_FFFF)
    else:  # body: first byte 0x00 breaks the IPv4 version nibble
        out[offset + 16] = 0x00
    return bytes(out)


# -- strict mode is unchanged ------------------------------------------------


def test_strict_mode_raises_on_corrupt_record_header():
    data = corrupt_one(capture_bytes(), 3, "header")
    with pytest.raises(PcapFormatError):
        list(PcapReader(io.BytesIO(data)))


def test_strict_mode_raises_on_corrupt_record_body():
    data = corrupt_one(capture_bytes(), 3, "body")
    with pytest.raises(ValueError):
        list(PcapReader(io.BytesIO(data)))


# -- lenient mode ------------------------------------------------------------


def test_lenient_skips_corrupt_body_and_counts_it():
    data = corrupt_one(capture_bytes(), 3, "body")
    reader = PcapReader(io.BytesIO(data), lenient=True)
    packets = list(reader)
    # exactly the damaged record is lost; framing is intact
    assert [p.timestamp for p in packets] == [0.0, 1.0, 2.0, 4.0] + [
        float(i) for i in range(5, 10)
    ]
    assert reader.corrupt_records == 1


def test_lenient_resyncs_after_corrupt_record_header():
    data = corrupt_one(capture_bytes(), 3, "header")
    reader = PcapReader(io.BytesIO(data), lenient=True)
    packets = list(reader)
    # the absurd caplen destroys record 3's framing; the resync scan
    # must recover at record 4 and lose nothing further
    assert [p.timestamp for p in packets[-6:]] == [float(i) for i in range(4, 10)]
    assert [p.timestamp for p in packets[:3]] == [0.0, 1.0, 2.0]
    assert reader.corrupt_records >= 1


def test_lenient_counts_truncated_final_record():
    data = capture_bytes(4)
    reader = PcapReader(io.BytesIO(data[:-3]), lenient=True)
    packets = list(reader)
    assert [p.timestamp for p in packets] == [0.0, 1.0, 2.0]
    assert reader.corrupt_records == 1


def test_lenient_body_corruption_count_is_exact():
    """Body corruption keeps framing, so ``corrupt_records`` equals the
    number of corrupted records exactly."""
    rng = SeededRng(77, "pcap-corrupt")
    data, corrupted = corrupt_pcap_bytes(
        capture_bytes(200), rng, rate=0.25, kinds=("body",)
    )
    assert corrupted > 0
    reader = PcapReader(io.BytesIO(data), lenient=True)
    packets = list(reader)
    assert reader.corrupt_records == corrupted
    assert len(packets) == 200 - corrupted


def test_lenient_header_corruption_recovers_most_of_the_stream(tmp_path):
    rng = SeededRng(78, "pcap-corrupt")
    data, corrupted = corrupt_pcap_bytes(
        capture_bytes(200), rng, rate=0.05, kinds=("header", "body")
    )
    assert corrupted > 0
    path = tmp_path / "damaged.pcap"
    path.write_bytes(data)
    packets = list(read_pcap(path, lenient=True))
    # a corrupt header may take its successor's framing with it during
    # resync, so recovery is bounded below, not exact
    assert len(packets) >= 200 - 3 * corrupted
    assert len(packets) < 200
    # recovered packets are the original ones, still in order
    timestamps = [p.timestamp for p in packets]
    assert timestamps == sorted(timestamps)
    assert set(timestamps) <= {float(i) for i in range(200)}


def test_read_pcap_strict_by_default(tmp_path):
    path = tmp_path / "damaged.pcap"
    path.write_bytes(corrupt_one(capture_bytes(), 2, "body"))
    with pytest.raises(ValueError):
        list(read_pcap(path))


# -- follow_pcap lenient wiring ----------------------------------------------


def test_follow_pcap_lenient_reports_corrupt_deltas(tmp_path):
    data = corrupt_one(corrupt_one(capture_bytes(), 2, "body"), 6, "body")
    path = tmp_path / "damaged.pcap"
    path.write_bytes(data)
    deltas = []
    batches = list(
        follow_pcap(
            path,
            batch_size=3,
            idle_timeout=0.0,
            lenient=True,
            on_corrupt=deltas.append,
        )
    )
    packets = [p for batch in batches for p in batch]
    assert len(packets) == 8
    assert sum(deltas) == 2
    assert all(delta > 0 for delta in deltas)


def test_follow_pcap_strict_raises_on_corruption(tmp_path):
    path = tmp_path / "damaged.pcap"
    path.write_bytes(corrupt_one(capture_bytes(), 2, "body"))
    with pytest.raises(ValueError):
        for _ in follow_pcap(path, batch_size=3, idle_timeout=0.0):
            pass
