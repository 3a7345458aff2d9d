"""QUIC packet protection and datagram assembly (RFC 9001 §5, RFC 9000 §12.2).

This module turns frame lists into protected wire packets and back:

- AEAD protection with the header as associated data,
- header protection masking the first-byte low bits and packet number,
- datagram *coalescing* (the server's first flight ships an Initial and
  a Handshake packet in one UDP datagram — the two-datagram response
  train discussed in Section 6 of the paper),
- the client-Initial 1200-byte padding rule (RFC 9000 §14.1), which is
  the knob an amplification attacker would turn (Section 3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.quic import crypto
from repro.quic.crypto import PacketKeys
from repro.quic.frames import Frame, PaddingFrame, parse_frames, serialize_frames
from repro.quic.header import (
    HeaderParseError,
    HeaderView,
    LongHeader,
    PacketType,
    parse_header,
)

#: RFC 9000 §14.1: a client MUST pad datagrams containing Initial
#: packets to at least 1200 bytes.
MIN_INITIAL_DATAGRAM = 1200


@dataclass
class PlainPacket:
    """An unprotected QUIC packet: header template + packet number + frames."""

    header: LongHeader
    packet_number: int
    frames: list

    def with_padding_to(self, target_payload_len: int) -> "PlainPacket":
        """Return a copy padded (with PADDING frames) to the target size."""
        current = len(serialize_frames(self.frames))
        if current >= target_payload_len:
            return self
        return PlainPacket(
            header=self.header,
            packet_number=self.packet_number,
            frames=list(self.frames) + [PaddingFrame(target_payload_len - current)],
        )


def protect_packet(
    plain: PlainPacket, keys: PacketKeys, largest_acked: int = -1
) -> bytes:
    """Serialize and protect one long-header packet."""
    pn_bytes = crypto.encode_packet_number(plain.packet_number, largest_acked)
    pn_len = len(pn_bytes)
    payload = serialize_frames(plain.frames)
    # The header-protection sample starts 4 bytes after the pn offset;
    # guarantee the ciphertext is long enough to sample from.
    min_payload = max(1, 4 - pn_len)
    if len(payload) < min_payload:
        payload += PaddingFrame(min_payload - len(payload)).serialize()
    header_bytes = plain.header.pack_prefix(
        pn_len, pn_len + len(payload) + crypto.AEAD_TAG_LEN
    )
    aad = header_bytes + pn_bytes
    sealed = crypto.aead_seal(keys, plain.packet_number, aad, payload)
    sample = sealed[4 - pn_len : 4 - pn_len + crypto.HP_SAMPLE_LEN]
    mask = crypto.header_protection_mask(keys.hp, sample)
    first = header_bytes[0] ^ (mask[0] & 0x0F)
    protected_pn = bytes(b ^ m for b, m in zip(pn_bytes, mask[1 : 1 + pn_len]))
    return bytes([first]) + header_bytes[1:] + protected_pn + sealed


def unprotect_initial(
    datagram: bytes,
    view: LongHeader,
    keys: PacketKeys,
    largest_pn: int = -1,
) -> tuple[int, list]:
    """Remove protection from a parsed Initial/Handshake packet.

    ``view`` must come from :func:`~repro.quic.header.parse_header` over
    the same ``datagram``.  Returns ``(packet_number, frames)``.
    Raises :class:`~repro.quic.crypto.DecryptError` on tag mismatch and
    :class:`~repro.quic.header.HeaderParseError` on structural problems.
    """
    pn_offset = view.pn_offset
    sample_start = pn_offset + 4
    sample = datagram[sample_start : sample_start + crypto.HP_SAMPLE_LEN]
    mask = crypto.header_protection_mask(keys.hp, sample)
    packet_start = view.start
    first = datagram[packet_start] ^ (mask[0] & 0x0F)
    pn_len = (first & 0x03) + 1
    protected_pn = datagram[pn_offset : pn_offset + pn_len]
    pn_bytes = bytes(b ^ m for b, m in zip(protected_pn, mask[1 : 1 + pn_len]))
    truncated_pn = int.from_bytes(pn_bytes, "big")
    packet_number = crypto.decode_packet_number(truncated_pn, pn_len * 8, largest_pn)
    header_bytes = (
        bytes([first]) + datagram[packet_start + 1 : pn_offset] + pn_bytes
    )
    sealed = datagram[pn_offset + pn_len : view.end]
    payload = crypto.aead_open(keys, packet_number, header_bytes, sealed)
    return packet_number, parse_frames(payload)


def protect_short_packet(
    dcid: bytes,
    packet_number: int,
    frames: list,
    keys: PacketKeys,
    key_phase: bool = False,
    largest_acked: int = -1,
) -> bytes:
    """Protect a 1-RTT short-header packet (RFC 9000 §17.3).

    Short headers carry no length field, so a packet occupies the rest
    of its datagram; endpoints delimit the DCID by knowing their own
    connection-ID length.
    """
    pn_bytes = crypto.encode_packet_number(packet_number, largest_acked)
    pn_len = len(pn_bytes)
    payload = serialize_frames(frames)
    min_payload = max(1, 4 - pn_len)
    if len(payload) < min_payload:
        payload += PaddingFrame(min_payload - len(payload)).serialize()
    first = 0x40 | (0x04 if key_phase else 0x00) | (pn_len - 1)
    header = bytes([first]) + dcid
    aad = header + pn_bytes
    sealed = crypto.aead_seal(keys, packet_number, aad, payload)
    sample = sealed[4 - pn_len : 4 - pn_len + crypto.HP_SAMPLE_LEN]
    mask = crypto.header_protection_mask(keys.hp, sample)
    protected_first = first ^ (mask[0] & 0x1F)  # 5 masked bits for short headers
    protected_pn = bytes(b ^ m for b, m in zip(pn_bytes, mask[1 : 1 + pn_len]))
    return bytes([protected_first]) + dcid + protected_pn + sealed


def unprotect_short_packet(
    datagram: bytes,
    dcid_len: int,
    keys: PacketKeys,
    largest_pn: int = -1,
) -> tuple[int, list]:
    """Remove protection from a 1-RTT packet given the local CID length."""
    if len(datagram) < 1 + dcid_len + 4 + crypto.HP_SAMPLE_LEN:
        raise HeaderParseError("short-header packet too small")
    pn_offset = 1 + dcid_len
    sample_start = pn_offset + 4
    sample = datagram[sample_start : sample_start + crypto.HP_SAMPLE_LEN]
    mask = crypto.header_protection_mask(keys.hp, sample)
    first = datagram[0] ^ (mask[0] & 0x1F)
    pn_len = (first & 0x03) + 1
    protected_pn = datagram[pn_offset : pn_offset + pn_len]
    pn_bytes = bytes(b ^ m for b, m in zip(protected_pn, mask[1 : 1 + pn_len]))
    truncated = int.from_bytes(pn_bytes, "big")
    packet_number = crypto.decode_packet_number(truncated, pn_len * 8, largest_pn)
    header = bytes([first]) + datagram[1:pn_offset] + pn_bytes
    sealed = datagram[pn_offset + pn_len :]
    payload = crypto.aead_open(keys, packet_number, header, sealed)
    return packet_number, parse_frames(payload)


def build_datagram(
    parts: Sequence[tuple[PlainPacket, PacketKeys]],
    pad_to: Optional[int] = None,
) -> bytes:
    """Protect and coalesce packets into one datagram.

    ``pad_to`` pads the datagram to a minimum size by inflating the
    *first Initial* packet's payload with PADDING frames, as clients do
    to satisfy the 1200-byte rule (and as attackers do to maximize
    reflected bytes).
    """
    if not parts:
        raise ValueError("datagram needs at least one packet")
    protected = [protect_packet(packet, keys) for packet, keys in parts]
    total = sum(len(p) for p in protected)
    if pad_to is not None and total < pad_to:
        deficit = pad_to - total
        index = next(
            (
                i
                for i, (packet, _keys) in enumerate(parts)
                if packet.header.packet_type is PacketType.INITIAL
            ),
            0,
        )
        packet, keys = parts[index]
        current_len = len(serialize_frames(packet.frames))
        padded = packet.with_padding_to(current_len + deficit)
        protected[index] = protect_packet(padded, keys)
    return b"".join(protected)


def split_datagram(data: bytes) -> list:
    """Parse a datagram into its coalesced packet header views.

    Walks packets front to back; a short-header packet consumes the rest
    of the datagram (its length is not self-describing).  Raises
    :class:`HeaderParseError` if any packet is malformed — callers that
    merely *classify* traffic catch this.
    """
    views: list[HeaderView] = []
    offset = 0
    while offset < len(data):
        view = parse_header(data, offset)
        # offsets inside the view are absolute within `data`
        views.append(view)
        if view.end <= offset:
            raise HeaderParseError("packet does not advance", reason="no-advance")
        offset = view.end
    return views
