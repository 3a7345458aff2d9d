"""The IPv4/UDP/TCP/ICMP header codecs and the header-object packet.

``repro`` builds and serializes no headers: generation stamps wire
templates (``repro.telescope.genlane.WireStamper``) and
``CapturedPacket.from_bytes`` reads only the scalars the analysis
decides on.  These codecs are what both are checked against: each
header packs to RFC wire bytes with correct Internet checksums (RFC
1071) and parses them back with every field the wire carried (TTL, IP
id, seq/ack, checksums).

:class:`HeaderPacket` is the packet record built from header objects —
the reference generator's packet type.  It is a
:class:`~repro.net.packet.CapturedPacket` whose scalar slots are copied
out of its headers once, so the lane and the rich walker read it like a
parsed packet; :meth:`HeaderPacket.to_bytes` serializes it and
:meth:`HeaderPacket.from_bytes` is the header-by-header parse
``CapturedPacket.from_bytes`` must agree with.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Optional, Union

from repro.net.packet import (
    BACKSCATTER_TYPES,
    KIND_ICMP,
    KIND_NONE,
    KIND_TCP,
    KIND_UDP,
    CapturedPacket,
    IPProto,
    TcpFlags,
)

# -- the Internet checksum (RFC 1071) -----------------------------------------


def internet_checksum(data: bytes) -> int:
    """One's-complement 16-bit checksum over ``data``.

    >>> hex(internet_checksum(bytes.fromhex("45000073000040004011b861c0a80001c0a800c7")))
    '0x0'
    """
    if len(data) % 2:
        data += b"\x00"
    total = 0
    for i in range(0, len(data), 2):
        total += (data[i] << 8) | data[i + 1]
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


def pseudo_header(src: int, dst: int, proto: int, length: int) -> bytes:
    """IPv4 pseudo-header used in TCP/UDP checksums."""
    return (
        src.to_bytes(4, "big")
        + dst.to_bytes(4, "big")
        + bytes([0, proto])
        + length.to_bytes(2, "big")
    )


# -- IPv4 (RFC 791, no options) -----------------------------------------------

_IPV4_HEADER = struct.Struct("!BBHHHBBHII")
IPV4_HEADER_LEN = _IPV4_HEADER.size  # 20 bytes, options are not modeled


@dataclass(slots=True)
class IPv4Header:
    """A minimal IPv4 header.

    ``total_length`` covers header plus payload and is filled in by
    :meth:`pack` when left at 0.  TTL defaults to 64; backscatter
    generators vary it to mimic heterogeneous victim stacks.
    """

    src: int
    dst: int
    proto: int
    total_length: int = 0
    identification: int = 0
    ttl: int = 64
    flags_fragment: int = 0x4000  # don't-fragment, offset 0
    tos: int = 0
    checksum: int = field(default=0, compare=False)

    def pack(self, payload_length: int) -> bytes:
        """Serialize with a correct header checksum."""
        total = self.total_length or IPV4_HEADER_LEN + payload_length
        head = _IPV4_HEADER.pack(
            (4 << 4) | 5,
            self.tos,
            total,
            self.identification,
            self.flags_fragment,
            self.ttl,
            self.proto,
            0,
            self.src,
            self.dst,
        )
        self.checksum = internet_checksum(head)
        self.total_length = total
        return head[:10] + self.checksum.to_bytes(2, "big") + head[12:]

    @classmethod
    def parse(cls, data: bytes) -> tuple["IPv4Header", bytes]:
        """Parse a header, returning ``(header, payload)``.

        Raises ``ValueError`` on truncation, bad version, or IHL < 5.
        """
        if len(data) < IPV4_HEADER_LEN:
            raise ValueError("IPv4 header truncated")
        (
            ver_ihl,
            tos,
            total,
            ident,
            flags_frag,
            ttl,
            proto,
            checksum,
            src,
            dst,
        ) = _IPV4_HEADER.unpack_from(data)
        version, ihl = ver_ihl >> 4, ver_ihl & 0xF
        if version != 4:
            raise ValueError(f"not an IPv4 packet (version={version})")
        if ihl < 5:
            raise ValueError(f"invalid IHL {ihl}")
        header_len = ihl * 4
        if len(data) < header_len:
            raise ValueError("IPv4 options truncated")
        header = cls(
            src=src,
            dst=dst,
            proto=proto,
            total_length=total,
            identification=ident,
            ttl=ttl,
            flags_fragment=flags_frag,
            tos=tos,
            checksum=checksum,
        )
        payload_end = min(len(data), total) if total >= header_len else len(data)
        return header, data[header_len:payload_end]


# -- UDP (RFC 768) --------------------------------------------------------------

_UDP_HEADER = struct.Struct("!HHHH")
UDP_HEADER_LEN = _UDP_HEADER.size  # 8


@dataclass(slots=True)
class UdpHeader:
    """A UDP header; checksum is computed over the pseudo-header."""

    src_port: int
    dst_port: int
    length: int = 0
    checksum: int = field(default=0, compare=False)

    def pack(self, payload: bytes, src_ip: int, dst_ip: int) -> bytes:
        length = UDP_HEADER_LEN + len(payload)
        head = _UDP_HEADER.pack(self.src_port, self.dst_port, length, 0)
        pseudo = pseudo_header(src_ip, dst_ip, IPProto.UDP, length)
        checksum = internet_checksum(pseudo + head + payload)
        if checksum == 0:  # RFC 768: transmitted as all-ones
            checksum = 0xFFFF
        self.length = length
        self.checksum = checksum
        return head[:6] + checksum.to_bytes(2, "big") + payload

    @classmethod
    def parse(cls, data: bytes) -> tuple["UdpHeader", bytes]:
        if len(data) < UDP_HEADER_LEN:
            raise ValueError("UDP header truncated")
        src, dst, length, checksum = _UDP_HEADER.unpack_from(data)
        if length < UDP_HEADER_LEN:
            raise ValueError(f"invalid UDP length {length}")
        header = cls(src_port=src, dst_port=dst, length=length, checksum=checksum)
        return header, data[UDP_HEADER_LEN : min(len(data), length)]


# -- TCP (RFC 793, no options) --------------------------------------------------

_TCP_HEADER = struct.Struct("!HHIIBBHHH")
TCP_HEADER_LEN = _TCP_HEADER.size  # 20


@dataclass(slots=True)
class TcpHeader:
    src_port: int
    dst_port: int
    seq: int = 0
    ack: int = 0
    flags: int = TcpFlags.SYN
    window: int = 65535
    urgent: int = 0
    checksum: int = field(default=0, compare=False)

    @property
    def is_syn_ack(self) -> bool:
        return bool(self.flags & TcpFlags.SYN) and bool(self.flags & TcpFlags.ACK)

    @property
    def is_rst(self) -> bool:
        return bool(self.flags & TcpFlags.RST)

    def pack(self, payload: bytes, src_ip: int, dst_ip: int) -> bytes:
        head = _TCP_HEADER.pack(
            self.src_port,
            self.dst_port,
            self.seq,
            self.ack,
            5 << 4,  # data offset, no options
            int(self.flags),
            self.window,
            0,
            self.urgent,
        )
        pseudo = pseudo_header(src_ip, dst_ip, IPProto.TCP, len(head) + len(payload))
        self.checksum = internet_checksum(pseudo + head + payload)
        return head[:16] + self.checksum.to_bytes(2, "big") + head[18:] + payload

    @classmethod
    def parse(cls, data: bytes) -> tuple["TcpHeader", bytes]:
        if len(data) < TCP_HEADER_LEN:
            raise ValueError("TCP header truncated")
        (
            src,
            dst,
            seq,
            ack,
            offset_byte,
            flags,
            window,
            checksum,
            urgent,
        ) = _TCP_HEADER.unpack_from(data)
        data_offset = (offset_byte >> 4) * 4
        if data_offset < TCP_HEADER_LEN or data_offset > len(data):
            raise ValueError(f"invalid TCP data offset {data_offset}")
        header = cls(
            src_port=src,
            dst_port=dst,
            seq=seq,
            ack=ack,
            flags=TcpFlags(flags),
            window=window,
            urgent=urgent,
            checksum=checksum,
        )
        return header, data[data_offset:]


# -- ICMP (RFC 792) -------------------------------------------------------------

_ICMP_HEADER = struct.Struct("!BBHHH")
ICMP_HEADER_LEN = _ICMP_HEADER.size  # 8


@dataclass(slots=True)
class IcmpHeader:
    icmp_type: int
    code: int = 0
    identifier: int = 0
    sequence: int = 0
    checksum: int = field(default=0, compare=False)

    @property
    def is_backscatter(self) -> bool:
        return self.icmp_type in BACKSCATTER_TYPES

    def pack(self, payload: bytes = b"") -> bytes:
        head = _ICMP_HEADER.pack(
            self.icmp_type, self.code, 0, self.identifier, self.sequence
        )
        self.checksum = internet_checksum(head + payload)
        return head[:2] + self.checksum.to_bytes(2, "big") + head[4:] + payload

    @classmethod
    def parse(cls, data: bytes) -> tuple["IcmpHeader", bytes]:
        if len(data) < ICMP_HEADER_LEN:
            raise ValueError("ICMP header truncated")
        icmp_type, code, checksum, ident, seq = _ICMP_HEADER.unpack_from(data)
        header = cls(
            icmp_type=icmp_type,
            code=code,
            identifier=ident,
            sequence=seq,
            checksum=checksum,
        )
        return header, data[ICMP_HEADER_LEN:]


# -- the header-object packet ---------------------------------------------------

TransportHeader = Union[UdpHeader, TcpHeader, IcmpHeader]

#: ``CapturedPacket.kind`` by transport header type, and back by proto
_KIND_OF_HEADER = {UdpHeader: KIND_UDP, TcpHeader: KIND_TCP, IcmpHeader: KIND_ICMP}
_HEADER_OF_PROTO = {IPProto.UDP: UdpHeader, IPProto.TCP: TcpHeader, IPProto.ICMP: IcmpHeader}


class HeaderPacket(CapturedPacket):
    """A packet held as header objects, with the scalars copied out."""

    __slots__ = ("ip", "transport")

    def __init__(
        self,
        timestamp: float,
        ip: IPv4Header,
        transport: Optional[TransportHeader],
        payload: bytes = b"",
    ) -> None:
        kind = _KIND_OF_HEADER.get(type(transport), KIND_NONE)
        scalars = {}
        if kind == KIND_ICMP:
            scalars = dict(icmp_type=int(transport.icmp_type), icmp_code=int(transport.code))
        elif kind:
            scalars = dict(src_port=transport.src_port, dst_port=transport.dst_port)
            if kind == KIND_TCP:
                scalars["tcp_flags"] = int(transport.flags)
        super().__init__(
            timestamp=timestamp,
            payload=payload,
            src=ip.src,
            dst=ip.dst,
            proto=ip.proto,
            total_length=ip.total_length,
            kind=kind,
            **scalars,
        )
        self.ip = ip
        self.transport = transport

    @classmethod
    def from_bytes(cls, timestamp: float, data: bytes) -> "HeaderPacket":
        """The reference parse: ``IPv4Header.parse``, then the
        transport's ``parse``.  A transport header that does not parse
        leaves the whole IP payload and no header; IP-level damage
        raises ``ValueError``."""
        ip, payload = IPv4Header.parse(data)
        transport = None
        header = _HEADER_OF_PROTO.get(ip.proto)
        if header is not None:
            try:
                transport, payload = header.parse(payload)
            except ValueError:
                pass
        return cls(timestamp, ip, transport, payload)

    def to_bytes(self) -> bytes:
        """Serialize to IPv4 wire bytes (checksums filled in)."""
        ip = self.ip
        transport = self.transport
        if self.kind == KIND_ICMP:
            body = transport.pack(self.payload)
        elif self.kind:
            body = transport.pack(self.payload, ip.src, ip.dst)
        else:
            body = self.payload
        data = ip.pack(len(body)) + body
        self.total_length = ip.total_length  # pack fills it in when 0
        return data

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.timestamp, self.ip, self.transport, self.payload) == (
            other.timestamp,
            other.ip,
            other.transport,
            other.payload,
        )
