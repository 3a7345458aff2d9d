"""Seeded property suite for the wire codecs.

Randomized roundtrip/invariant checks over the varint codec and the
IPv4/UDP/TCP/ICMP header serializers, driven by
:class:`~repro.util.rng.SeededRng` rather than an external property
framework, so failures replay exactly and tier-1 stays dependency-free.

Properties pinned here:

- **encode → decode → encode identity** — serializing, parsing, and
  re-serializing any generated header yields byte-identical wire data;
- **field fidelity** — every parsed field equals what was encoded;
- **checksum validity** — freshly packed headers verify under the
  RFC 1071 one's-complement sum (fold to zero, pseudo-header included
  for TCP/UDP);
- **checksum sensitivity** — any single-bit flip in a packed datagram
  is caught: parsing rejects it or the checksum no longer verifies;
- **varint totality** — every 1/2/4/8-byte buffer with a valid length
  prefix decodes, re-encodes to the same bytes at the same width, and
  every strict prefix of a varint raises ``VarintError``.
"""

import os

from repro.net.packet import IPProto, IcmpType, TcpFlags
from repro.util.rng import SeededRng
from repro.util.varint import (
    MAX_VARINT,
    VarintError,
    decode_varint,
    encode_varint,
    varint_length,
)
from tests.reference.headers import (
    IPv4Header,
    IcmpHeader,
    TcpHeader,
    UdpHeader,
    internet_checksum,
    pseudo_header,
)

ITERS = int(os.environ.get("REPRO_FUZZ_ITERS", "300"))

_WIDTH_RANGES = {1: (0, 63), 2: (64, 16383), 4: (16384, 1073741823), 8: (1073741824, MAX_VARINT)}


def random_varint_value(rng):
    low, high = _WIDTH_RANGES[rng.choice((1, 2, 4, 8))]
    return rng.randint(low, high)


# -- varint ------------------------------------------------------------------


def test_varint_roundtrip_and_minimal_length():
    rng = SeededRng(0x9A01, "prop-varint")
    for _ in range(ITERS):
        value = random_varint_value(rng)
        wire = encode_varint(value)
        assert len(wire) == varint_length(value)
        decoded, end = decode_varint(wire)
        assert (decoded, end) == (value, len(wire))
        assert encode_varint(decoded) == wire


def test_varint_forced_widths_decode_identically():
    rng = SeededRng(0x9A02, "prop-varint-wide")
    for _ in range(ITERS):
        value = random_varint_value(rng)
        for width in (1, 2, 4, 8):
            if width < varint_length(value):
                continue
            wire = encode_varint(value, width)
            assert len(wire) == width
            assert decode_varint(wire) == (value, width)


def test_varint_bytes_value_bytes_identity():
    """Any buffer with a coherent length prefix is a fixed point of
    decode→encode at its own width — including non-minimal encodings."""
    rng = SeededRng(0x9A03, "prop-varint-raw")
    for _ in range(ITERS):
        width = rng.choice((1, 2, 4, 8))
        raw = bytearray(rng.randbytes(width))
        raw[0] = (raw[0] & 0x3F) | ({1: 0, 2: 1, 4: 2, 8: 3}[width] << 6)
        wire = bytes(raw)
        value, end = decode_varint(wire)
        assert end == width
        assert encode_varint(value, width) == wire


def test_varint_truncation_always_raises():
    rng = SeededRng(0x9A04, "prop-varint-trunc")
    for _ in range(ITERS):
        wire = encode_varint(random_varint_value(rng))
        for cut in range(len(wire)):
            try:
                decode_varint(wire[:cut])
            except VarintError:
                continue
            raise AssertionError(f"prefix {wire[:cut].hex()!r} decoded")


# -- header generators -------------------------------------------------------


def random_ipv4(rng):
    return IPv4Header(
        src=rng.randint(0, 0xFFFFFFFF),
        dst=rng.randint(0, 0xFFFFFFFF),
        proto=rng.choice((IPProto.ICMP, IPProto.TCP, IPProto.UDP)),
        identification=rng.randint(0, 0xFFFF),
        ttl=rng.randint(1, 255),
        flags_fragment=rng.choice((0x0000, 0x4000)),
        tos=rng.randint(0, 255),
    )


def random_udp(rng):
    return UdpHeader(
        src_port=rng.randint(0, 0xFFFF), dst_port=rng.randint(0, 0xFFFF)
    )


def random_tcp(rng):
    flags = rng.choice(
        (
            TcpFlags.SYN,
            TcpFlags.SYN | TcpFlags.ACK,
            TcpFlags.RST,
            TcpFlags.RST | TcpFlags.ACK,
            TcpFlags.FIN | TcpFlags.ACK,
            TcpFlags.PSH | TcpFlags.ACK,
        )
    )
    return TcpHeader(
        src_port=rng.randint(0, 0xFFFF),
        dst_port=rng.randint(0, 0xFFFF),
        seq=rng.randint(0, 0xFFFFFFFF),
        ack=rng.randint(0, 0xFFFFFFFF),
        flags=flags,
        window=rng.randint(0, 0xFFFF),
    )


def random_icmp(rng):
    return IcmpHeader(
        icmp_type=rng.choice(
            (
                IcmpType.ECHO_REPLY,
                IcmpType.DEST_UNREACHABLE,
                IcmpType.ECHO_REQUEST,
                IcmpType.TIME_EXCEEDED,
            )
        ),
        code=rng.randint(0, 15),
        identifier=rng.randint(0, 0xFFFF),
        sequence=rng.randint(0, 0xFFFF),
    )


# -- IPv4 --------------------------------------------------------------------


def test_ipv4_roundtrip_identity_and_checksum():
    rng = SeededRng(0x9A10, "prop-ipv4")
    for _ in range(ITERS):
        header = random_ipv4(rng)
        payload = rng.randbytes(rng.randint(0, 64))
        wire = header.pack(len(payload))
        # a valid IPv4 header folds to zero with its checksum in place
        assert internet_checksum(wire) == 0
        parsed, parsed_payload = IPv4Header.parse(wire + payload)
        assert parsed_payload == payload
        assert (parsed.src, parsed.dst, parsed.proto) == (
            header.src,
            header.dst,
            header.proto,
        )
        assert parsed.ttl == header.ttl
        assert parsed.identification == header.identification
        assert parsed.flags_fragment == header.flags_fragment
        assert parsed.tos == header.tos
        assert parsed.checksum == header.checksum
        assert parsed.pack(len(payload)) == wire


def test_ipv4_single_bit_flip_detected():
    rng = SeededRng(0x9A11, "prop-ipv4-flip")
    for _ in range(ITERS):
        wire = bytearray(random_ipv4(rng).pack(0))
        index = rng.randint(0, len(wire) - 1)
        wire[index] ^= 1 << rng.randint(0, 7)
        try:
            IPv4Header.parse(bytes(wire))
        except ValueError:
            continue  # version/IHL damage: rejected outright
        assert internet_checksum(bytes(wire)) != 0, wire.hex()


# -- UDP ---------------------------------------------------------------------


def test_udp_roundtrip_identity_and_checksum():
    rng = SeededRng(0x9A20, "prop-udp")
    for _ in range(ITERS):
        header = random_udp(rng)
        payload = rng.randbytes(rng.randint(0, 128))
        src_ip = rng.randint(0, 0xFFFFFFFF)
        dst_ip = rng.randint(0, 0xFFFFFFFF)
        wire = header.pack(payload, src_ip, dst_ip)
        pseudo = pseudo_header(src_ip, dst_ip, IPProto.UDP, len(wire))
        assert internet_checksum(pseudo + wire) == 0
        parsed, parsed_payload = UdpHeader.parse(wire)
        assert parsed_payload == payload
        assert parsed == header  # length/checksum were filled by pack
        assert parsed.length == 8 + len(payload)
        assert parsed.pack(parsed_payload, src_ip, dst_ip) == wire


def test_udp_single_bit_flip_detected():
    rng = SeededRng(0x9A21, "prop-udp-flip")
    for _ in range(ITERS):
        src_ip = rng.randint(0, 0xFFFFFFFF)
        dst_ip = rng.randint(0, 0xFFFFFFFF)
        wire = bytearray(
            random_udp(rng).pack(rng.randbytes(rng.randint(1, 32)), src_ip, dst_ip)
        )
        index = rng.randint(0, len(wire) - 1)
        wire[index] ^= 1 << rng.randint(0, 7)
        # verify against the true datagram length, like an IP stack would
        pseudo = pseudo_header(src_ip, dst_ip, IPProto.UDP, len(wire))
        assert internet_checksum(pseudo + bytes(wire)) != 0, wire.hex()


# -- TCP ---------------------------------------------------------------------


def test_tcp_roundtrip_identity_and_checksum():
    rng = SeededRng(0x9A30, "prop-tcp")
    for _ in range(ITERS):
        header = random_tcp(rng)
        payload = rng.randbytes(rng.randint(0, 64))
        src_ip = rng.randint(0, 0xFFFFFFFF)
        dst_ip = rng.randint(0, 0xFFFFFFFF)
        wire = header.pack(payload, src_ip, dst_ip)
        pseudo = pseudo_header(src_ip, dst_ip, IPProto.TCP, len(wire))
        assert internet_checksum(pseudo + wire) == 0
        parsed, parsed_payload = TcpHeader.parse(wire)
        assert parsed_payload == payload
        assert parsed == header
        assert parsed.is_syn_ack == header.is_syn_ack
        assert parsed.is_rst == header.is_rst
        assert parsed.pack(parsed_payload, src_ip, dst_ip) == wire


def test_tcp_single_bit_flip_detected():
    rng = SeededRng(0x9A31, "prop-tcp-flip")
    for _ in range(ITERS):
        src_ip = rng.randint(0, 0xFFFFFFFF)
        dst_ip = rng.randint(0, 0xFFFFFFFF)
        wire = bytearray(random_tcp(rng).pack(b"", src_ip, dst_ip))
        index = rng.randint(0, len(wire) - 1)
        wire[index] ^= 1 << rng.randint(0, 7)
        pseudo = pseudo_header(src_ip, dst_ip, IPProto.TCP, len(wire))
        try:
            TcpHeader.parse(bytes(wire))
        except ValueError:
            continue  # data-offset damage: rejected outright
        assert internet_checksum(pseudo + bytes(wire)) != 0, wire.hex()


# -- ICMP --------------------------------------------------------------------


def test_icmp_roundtrip_identity_and_checksum():
    rng = SeededRng(0x9A40, "prop-icmp")
    for _ in range(ITERS):
        header = random_icmp(rng)
        payload = rng.randbytes(rng.randint(0, 64))
        wire = header.pack(payload)
        assert internet_checksum(wire) == 0
        parsed, parsed_payload = IcmpHeader.parse(wire)
        assert parsed_payload == payload
        assert parsed == header
        assert parsed.is_backscatter == header.is_backscatter
        assert parsed.pack(parsed_payload) == wire


def test_icmp_single_bit_flip_detected():
    rng = SeededRng(0x9A41, "prop-icmp-flip")
    for _ in range(ITERS):
        wire = bytearray(random_icmp(rng).pack(rng.randbytes(rng.randint(0, 16))))
        index = rng.randint(0, len(wire) - 1)
        wire[index] ^= 1 << rng.randint(0, 7)
        assert internet_checksum(bytes(wire)) != 0, wire.hex()
