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
this kind of test.  The last section runs ``analyze`` and ``watch
--pcap`` over a damaged capture: lenient reads count every damaged
record, strict reads and missing files exit 2 with one line.
"""

import io
import re
import struct

import pytest

from repro.cli import main
from repro.faults import corrupt_pcap_bytes
from repro.net.packet import CapturedPacket, IPProto
from repro.net.pcap import PcapFormatError, PcapReader, read_pcap
from repro.stream.feeds import follow_pcap
from repro.util.rng import SeededRng
from tests.oracle import pcap_bytes
from tests.reference.headers import HeaderPacket, IPv4Header, UdpHeader


def make_packet(ts: float, src: int = 1, dst: int = 2) -> CapturedPacket:
    return HeaderPacket(
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


# -- strict mode -------------------------------------------------------------


def test_strict_mode_raises_on_corrupt_record_header():
    data = corrupt_one(capture_bytes(), 3, "header")
    header = r"^implausible pcap record header at byte \d+: caplen=2147483647"
    with pytest.raises(PcapFormatError, match=header):
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


# -- damaged captures at command level ---------------------------------------

HALF_HOUR = ["--hours", "0.5", "--research-sample", "0.0005"]


def run_cli(argv):
    stream = io.StringIO()
    code = main(argv, stream=stream)
    return code, stream.getvalue()


@pytest.fixture(scope="module")
def clean_capture(tmp_path_factory):
    """A simulated half hour, undamaged."""
    path = tmp_path_factory.mktemp("clean") / "clean.pcap"
    assert run_cli(["simulate", *HALF_HOUR, "--out", str(path)])[0] == 0
    return path


@pytest.fixture(scope="module")
def damaged_capture(tmp_path_factory, clean_capture):
    """``(path, damaged records)`` of a simulated half hour with about
    one record in a hundred corrupted, header or body."""
    data, damaged = corrupt_pcap_bytes(
        clean_capture.read_bytes(), SeededRng(7), rate=0.01
    )
    path = tmp_path_factory.mktemp("damaged") / "damaged.pcap"
    path.write_bytes(data)
    return path, damaged


def test_cli_lenient_analyze_counts_every_damaged_record(damaged_capture):
    path, damaged = damaged_capture
    assert damaged == 30
    code, out = run_cli(["analyze", *HALF_HOUR, "--lenient", str(path)])
    assert code == 0
    assert out.splitlines()[0] == f"skipped {damaged} corrupt pcap record(s)"
    assert "Overview (Figure 2)" in out


@pytest.mark.parametrize("command", [["analyze"], ["watch", "--pcap"]], ids=["analyze", "watch"])
def test_cli_strict_read_of_a_damaged_capture_exits_2(damaged_capture, command):
    """One line naming the damaged record's offset and the way round it."""
    path, _damaged = damaged_capture
    code, out = run_cli([command[0], *HALF_HOUR, *command[1:], str(path)])
    assert code == 2
    line = out.splitlines()[-1]
    match = re.fullmatch(
        rf"cannot read {re.escape(str(path))}: corrupt pcap record at byte (\d+): "
        r".+; --lenient skips damaged records",
        line,
    )
    assert match, line
    offset = int(match.group(1))
    # the offset is a record header whose body is not an IPv4 packet
    assert path.read_bytes()[offset + 16] >> 4 != 4


def test_cli_strict_read_names_an_implausible_record_header(clean_capture, tmp_path):
    """Record 0 claims a 2 GiB body: a strict read stops at its header,
    byte 24 (after the global header), instead of reading to the end of
    the file; ``--lenient`` skips that one record."""
    clean = clean_capture.read_bytes()
    origlen = struct.unpack_from("<I", clean, 24 + 12)[0]
    path = tmp_path / "header.pcap"
    path.write_bytes(corrupt_one(clean, 0, "header"))
    code, out = run_cli(["analyze", *HALF_HOUR, str(path)])
    assert code == 2
    assert out.splitlines()[-1] == (
        f"cannot read {path}: implausible pcap record header at byte 24: "
        f"caplen=2147483647, origlen={origlen}; --lenient skips damaged records"
    )
    code, out = run_cli(["analyze", *HALF_HOUR, "--lenient", str(path)])
    assert code == 0
    assert out.splitlines()[0] == "skipped 1 corrupt pcap record(s)"


@pytest.mark.parametrize("command", [["analyze"], ["watch", "--pcap"]], ids=["analyze", "watch"])
def test_cli_missing_capture_exits_2(tmp_path, command):
    missing = tmp_path / "missing.pcap"
    code, out = run_cli([command[0], *HALF_HOUR, *command[1:], str(missing)])
    assert code == 2
    assert out.splitlines()[-1].startswith(f"cannot read {missing}: ")
