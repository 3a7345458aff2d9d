"""Tests for QUIC header parsing: long/short/retry/version negotiation."""

import pytest

from repro.quic.header import (
    HeaderParseError,
    LongHeader,
    PacketType,
    RetryPacket,
    ShortHeader,
    VersionNegotiationPacket,
    parse_header,
)
from repro.quic.versions import QUIC_V1, DRAFT_29


def _long_wire(packet_type=PacketType.INITIAL, token=b"", payload_len=20):
    header = LongHeader(
        packet_type=packet_type,
        version=QUIC_V1.value,
        dcid=b"\xaa" * 8,
        scid=b"\xbb" * 8,
        token=token,
    )
    prefix = header.pack_prefix(pn_length=1, pn_and_payload_length=payload_len)
    return prefix + bytes(payload_len)


def test_parse_initial():
    wire = _long_wire()
    view = parse_header(wire)
    assert isinstance(view, LongHeader)
    assert view.packet_type is PacketType.INITIAL
    assert view.version == QUIC_V1.value
    assert view.dcid == b"\xaa" * 8
    assert view.scid == b"\xbb" * 8
    assert view.end == len(wire)


def test_parse_initial_with_token():
    wire = _long_wire(token=b"tok-tok")
    view = parse_header(wire)
    assert view.token == b"tok-tok"


def test_parse_handshake():
    wire = _long_wire(packet_type=PacketType.HANDSHAKE)
    view = parse_header(wire)
    assert view.packet_type is PacketType.HANDSHAKE
    assert view.token == b""


def test_start_and_end_offsets_in_coalesced_buffer():
    first = _long_wire()
    second = _long_wire(packet_type=PacketType.HANDSHAKE)
    buffer = first + second
    view1 = parse_header(buffer, 0)
    assert (view1.start, view1.end) == (0, len(first))
    view2 = parse_header(buffer, view1.end)
    assert (view2.start, view2.end) == (len(first), len(buffer))
    assert view2.packet_type is PacketType.HANDSHAKE


def test_short_header_parse():
    wire = bytes([0x40]) + b"\x01" * 20
    view = parse_header(wire)
    assert isinstance(view, ShortHeader)
    assert view.packet_type is PacketType.ONE_RTT
    assert view.raw[:8] == b"\x01" * 8


def test_short_header_without_fixed_bit_rejected():
    with pytest.raises(HeaderParseError):
        parse_header(bytes([0x00]) + b"\x00" * 20)


def test_version_negotiation_roundtrip():
    packet = VersionNegotiationPacket(
        dcid=b"\x01" * 4,
        scid=b"\x02" * 4,
        supported_versions=(QUIC_V1.value, DRAFT_29.value),
    )
    view = parse_header(packet.serialize())
    assert isinstance(view, VersionNegotiationPacket)
    assert view.supported_versions == (QUIC_V1.value, DRAFT_29.value)
    assert view.dcid == b"\x01" * 4


def test_version_negotiation_malformed_list_rejected():
    packet = VersionNegotiationPacket(b"", b"", (QUIC_V1.value,)).serialize()
    with pytest.raises(HeaderParseError):
        parse_header(packet + b"\x00")  # list not multiple of 4


def test_retry_roundtrip():
    packet = RetryPacket(
        version=QUIC_V1.value,
        dcid=b"\x0a" * 8,
        scid=b"\x0b" * 8,
        token=b"token-bytes",
        integrity_tag=b"\x0c" * 16,
    )
    view = parse_header(packet.serialize())
    assert isinstance(view, RetryPacket)
    assert view.token == b"token-bytes"
    assert view.integrity_tag == b"\x0c" * 16


def test_retry_shorter_than_tag_rejected():
    packet = RetryPacket(
        version=QUIC_V1.value, dcid=b"", scid=b"", token=b"", integrity_tag=b"\x00" * 16
    ).serialize()
    with pytest.raises(HeaderParseError):
        parse_header(packet[:-10])


def test_empty_buffer_rejected():
    with pytest.raises(HeaderParseError):
        parse_header(b"")


def test_truncated_long_header_rejected():
    with pytest.raises(HeaderParseError):
        parse_header(bytes([0xC0, 0x00, 0x00]))


def test_cid_longer_than_20_rejected():
    wire = bytearray(_long_wire())
    wire[5] = 21  # dcid length byte
    with pytest.raises(HeaderParseError):
        parse_header(bytes(wire))


def test_long_header_without_fixed_bit_rejected():
    wire = bytearray(_long_wire())
    wire[0] &= ~0x40
    with pytest.raises(HeaderParseError):
        parse_header(bytes(wire))


def test_truncated_payload_rejected():
    wire = _long_wire(payload_len=100)
    with pytest.raises(HeaderParseError):
        parse_header(wire[:-50])


def test_payload_too_short_for_sample_rejected():
    wire = _long_wire(payload_len=3)
    with pytest.raises(HeaderParseError):
        parse_header(wire)


def test_pack_prefix_rejects_bad_pn_length():
    header = LongHeader(PacketType.INITIAL, QUIC_V1.value, b"", b"")
    with pytest.raises(HeaderParseError):
        header.pack_prefix(pn_length=5, pn_and_payload_length=10)


def test_pack_prefix_rejects_oversized_cid():
    header = LongHeader(PacketType.INITIAL, QUIC_V1.value, b"\x00" * 21, b"")
    with pytest.raises(HeaderParseError):
        header.pack_prefix(pn_length=1, pn_and_payload_length=10)
