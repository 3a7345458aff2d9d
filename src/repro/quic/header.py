"""QUIC packet headers (RFC 8999 invariants, RFC 9000 §17).

The *invariant* parts of QUIC headers — header form bit, version,
connection IDs — are readable by any observer, which is exactly what a
network telescope exploits: the long-header packet type (Initial /
0-RTT / Handshake / Retry) sits in bits 4-5 of the first byte and is
**not** covered by header protection, so message-type statistics
(Section 6 of the paper: 31% Initial, 57% Handshake) and SCID counting
(Figure 9) work without any key material.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Union

from repro.util.varint import VarintError, decode_varint, encode_varint
from repro.quic.versions import VERSION_NEGOTIATION

FORM_LONG = 0x80
FIXED_BIT = 0x40
MAX_CID_LEN = 20


class PacketType(enum.Enum):
    """Long-header packet types plus the short-header 1-RTT type."""

    INITIAL = 0
    ZERO_RTT = 1
    HANDSHAKE = 2
    RETRY = 3
    ONE_RTT = "1rtt"
    VERSION_NEGOTIATION = "vn"
    GQUIC = "gquic"

    @property
    def wire_bits(self) -> int:
        if not isinstance(self.value, int):
            raise ValueError(f"{self} has no long-header type bits")
        return self.value


class HeaderParseError(ValueError):
    """Raised when bytes are not a valid QUIC header.

    ``reason`` is a stable machine-readable slug for the failure class
    (one of the values of
    :class:`repro.core.dissect.MalformedReason`); the dissector uses it
    to tally malformed traffic per reason instead of per message
    string, so hostile inputs produce bounded-cardinality telemetry.
    """

    def __init__(self, message: str, reason: str = "malformed") -> None:
        super().__init__(message)
        self.reason = reason


@dataclass
class LongHeader:
    """An unprotected long header for Initial/0-RTT/Handshake packets.

    ``pn_offset``/``end`` are filled by :func:`parse_header` and locate
    the protected packet number and the end of this QUIC packet inside
    a (possibly coalesced) datagram.
    """

    packet_type: PacketType
    version: int
    dcid: bytes
    scid: bytes
    token: bytes = b""
    pn_offset: int = field(default=0, compare=False)
    start: int = field(default=0, compare=False)
    end: int = field(default=0, compare=False)
    payload_length: int = field(default=0, compare=False)

    def pack_prefix(self, pn_length: int, pn_and_payload_length: int) -> bytes:
        """Serialize up to (excluding) the packet number.

        The two low bits of the first byte encode ``pn_length - 1`` and
        are later masked by header protection.
        """
        if not 1 <= pn_length <= 4:
            raise HeaderParseError(f"invalid packet number length {pn_length}")
        _check_cid(self.dcid)
        _check_cid(self.scid)
        first = FORM_LONG | FIXED_BIT | (self.packet_type.wire_bits << 4) | (pn_length - 1)
        out = bytes([first]) + self.version.to_bytes(4, "big")
        out += bytes([len(self.dcid)]) + self.dcid
        out += bytes([len(self.scid)]) + self.scid
        if self.packet_type is PacketType.INITIAL:
            out += encode_varint(len(self.token)) + self.token
        out += encode_varint(pn_and_payload_length, 2)
        return out


@dataclass
class ShortHeader:
    """A 1-RTT short header view.

    The DCID length is not self-describing; observers that did not see
    the handshake (telescopes!) cannot delimit it, so the view keeps the
    raw remainder.
    """

    first_byte: int
    raw: bytes
    start: int = field(default=0, compare=False)
    end: int = field(default=0, compare=False)

    packet_type: PacketType = field(default=PacketType.ONE_RTT, init=False)


@dataclass
class RetryPacket:
    """A Retry packet (RFC 9000 §17.2.5): token plus 16-byte integrity tag."""

    version: int
    dcid: bytes
    scid: bytes
    token: bytes
    integrity_tag: bytes
    start: int = field(default=0, compare=False)
    end: int = field(default=0, compare=False)

    packet_type: PacketType = field(default=PacketType.RETRY, init=False)

    def serialize(self) -> bytes:
        _check_cid(self.dcid)
        _check_cid(self.scid)
        if len(self.integrity_tag) != 16:
            raise HeaderParseError("retry integrity tag must be 16 bytes")
        first = FORM_LONG | FIXED_BIT | (PacketType.RETRY.wire_bits << 4)
        out = bytes([first]) + self.version.to_bytes(4, "big")
        out += bytes([len(self.dcid)]) + self.dcid
        out += bytes([len(self.scid)]) + self.scid
        out += self.token + self.integrity_tag
        return out


@dataclass
class VersionNegotiationPacket:
    """Version Negotiation (RFC 9000 §17.2.1): version field is zero."""

    dcid: bytes
    scid: bytes
    supported_versions: tuple[int, ...]
    start: int = field(default=0, compare=False)
    end: int = field(default=0, compare=False)

    packet_type: PacketType = field(default=PacketType.VERSION_NEGOTIATION, init=False)

    def serialize(self) -> bytes:
        _check_cid(self.dcid)
        _check_cid(self.scid)
        first = FORM_LONG | 0x3F  # unused bits set, fixed bit not required
        out = bytes([first]) + VERSION_NEGOTIATION.to_bytes(4, "big")
        out += bytes([len(self.dcid)]) + self.dcid
        out += bytes([len(self.scid)]) + self.scid
        for version in self.supported_versions:
            out += version.to_bytes(4, "big")
        return out


HeaderView = Union[LongHeader, ShortHeader, RetryPacket, VersionNegotiationPacket]


def parse_header(data: bytes, offset: int = 0) -> HeaderView:
    """Parse the next QUIC packet header inside ``data``.

    Returns a header view whose ``end`` marks where the packet ends
    (coalesced datagrams contain further packets from there).  Raises
    :class:`HeaderParseError` for anything that is not plausible QUIC —
    this strictness is what makes the classifier's dissector step filter
    non-QUIC UDP/443 traffic.
    """
    if offset >= len(data):
        raise HeaderParseError("empty packet", reason="empty")
    first = data[offset]
    if not first & FORM_LONG:
        if not first & FIXED_BIT:
            raise HeaderParseError(
                "short header without fixed bit", reason="no-fixed-bit"
            )
        view = ShortHeader(first_byte=first, raw=data[offset + 1 :])
        view.start = offset
        view.end = len(data)
        return view

    if len(data) - offset < 7:
        raise HeaderParseError("long header truncated", reason="truncated-header")
    version = int.from_bytes(data[offset + 1 : offset + 5], "big")
    pos = offset + 5
    dcid, pos = _parse_cid(data, pos)
    scid, pos = _parse_cid(data, pos)

    if version == VERSION_NEGOTIATION:
        rest = data[pos:]
        if len(rest) % 4 or not rest:
            raise HeaderParseError(
                "version negotiation list malformed",
                reason="bad-version-negotiation",
            )
        versions = tuple(
            int.from_bytes(rest[i : i + 4], "big") for i in range(0, len(rest), 4)
        )
        view = VersionNegotiationPacket(dcid, scid, versions)
        view.start = offset
        view.end = len(data)
        return view

    if not first & FIXED_BIT:
        raise HeaderParseError(
            "long header without fixed bit", reason="no-fixed-bit"
        )
    packet_type = PacketType((first >> 4) & 0x03)

    if packet_type is PacketType.RETRY:
        token_and_tag = data[pos:]
        if len(token_and_tag) < 16:
            raise HeaderParseError(
                "retry packet shorter than integrity tag",
                reason="truncated-payload",
            )
        view = RetryPacket(
            version=version,
            dcid=dcid,
            scid=scid,
            token=token_and_tag[:-16],
            integrity_tag=token_and_tag[-16:],
        )
        view.start = offset
        view.end = len(data)
        return view

    token = b""
    if packet_type is PacketType.INITIAL:
        try:
            token_len, pos = decode_varint(data, pos)
        except VarintError as exc:
            raise HeaderParseError(
                f"initial token length: {exc}", reason="bad-varint"
            ) from exc
        if pos + token_len > len(data):
            raise HeaderParseError(
                "initial token truncated", reason="truncated-payload"
            )
        token = data[pos : pos + token_len]
        pos += token_len
    try:
        length, pos = decode_varint(data, pos)
    except VarintError as exc:
        raise HeaderParseError(
            f"long header length: {exc}", reason="bad-varint"
        ) from exc
    end = pos + length
    if end > len(data):
        raise HeaderParseError(
            "long header payload truncated", reason="truncated-payload"
        )
    if length < 4:
        # RFC 9001 §5.4.2 requires pn + payload to allow a 4-byte HP sample
        raise HeaderParseError(
            f"long header payload too short ({length})",
            reason="payload-too-short",
        )
    header = LongHeader(
        packet_type=packet_type,
        version=version,
        dcid=dcid,
        scid=scid,
        token=token,
        pn_offset=pos,
        payload_length=length,
    )
    header.start = offset
    header.end = end
    return header


def _parse_cid(data: bytes, pos: int) -> tuple[bytes, int]:
    if pos >= len(data):
        raise HeaderParseError(
            "connection ID length truncated", reason="bad-connection-id"
        )
    cid_len = data[pos]
    pos += 1
    if cid_len > MAX_CID_LEN:
        raise HeaderParseError(
            f"connection ID length {cid_len} exceeds 20",
            reason="bad-connection-id",
        )
    if pos + cid_len > len(data):
        raise HeaderParseError(
            "connection ID truncated", reason="bad-connection-id"
        )
    return data[pos : pos + cid_len], pos + cid_len


def _check_cid(cid: bytes) -> None:
    if len(cid) > MAX_CID_LEN:
        raise HeaderParseError(f"connection ID too long ({len(cid)} bytes)")
