"""The packet record shared by pcaps, the fault injector and the pipeline.

A :class:`CapturedPacket` is a timestamped IPv4 packet reduced to the
fields a passive vantage decides on.  It is the pipeline's hottest
object — one instance per packet — so it is slotted and flat: twelve
scalar slots, ``timestamp``, ``payload`` (the transport payload),
``src``, ``dst``, ``proto``, ``total_length`` (the IPv4 length field,
0 when unknown), ``kind`` (``KIND_*``: which transport header parsed),
``src_port`` / ``dst_port`` (``None`` without a parsed UDP/TCP header),
``tcp_flags`` and ``icmp_type`` / ``icmp_code`` (0 for other kinds),
plus the derived :attr:`~CapturedPacket.wire_length`.  Nothing
derivable is stored twice: readers branch on ``proto`` itself.

:meth:`CapturedPacket.from_bytes` is the one parser: one pass over the
wire bytes fills the scalars, and the header fields no analysis reads
(TTL, IP id, checksums, seq/ack) are not kept.  The package builds and
serializes no headers; the header codecs the wire stamper is checked
against live with the tests (``tests/reference/headers.py``).

Parsed payloads are shared: :meth:`~CapturedPacket.from_bytes` passes
each payload through one module-level ``functools.lru_cache`` of
:data:`~repro.util.batching.MEMO_ENTRIES` (:data:`_shared_payload`), so
a payload equal to one parsed recently is that same immutable object.
Scanners replay a few probe templates, so a capture held as packets
keeps one copy of each template instead of one per packet; payloads
that never recur (backscatter) pass through and fall out of the bound.
"""

from __future__ import annotations

import enum
import functools
import struct
from typing import Optional

from repro.net.addresses import format_ipv4
from repro.util.batching import MEMO_ENTRIES


class IPProto(enum.IntEnum):
    """The IP protocol numbers the telescope pipeline distinguishes."""

    ICMP = 1
    TCP = 6
    UDP = 17


class TcpFlags(enum.IntFlag):
    FIN = 0x01
    SYN = 0x02
    RST = 0x04
    PSH = 0x08
    ACK = 0x10
    URG = 0x20


class IcmpType(enum.IntEnum):
    ECHO_REPLY = 0
    DEST_UNREACHABLE = 3
    ECHO_REQUEST = 8
    TIME_EXCEEDED = 11


#: types a darknet interprets as responses to spoofed packets
BACKSCATTER_TYPES = frozenset(
    int(t)
    for t in (IcmpType.ECHO_REPLY, IcmpType.DEST_UNREACHABLE, IcmpType.TIME_EXCEEDED)
)

#: fixed header lengths (no IPv4 or TCP options are generated)
IPV4_HEADER_LEN = 20
UDP_HEADER_LEN = 8
TCP_HEADER_LEN = 20
ICMP_HEADER_LEN = 8

_UDP = int(IPProto.UDP)
_TCP = int(IPProto.TCP)
_ICMP = int(IPProto.ICMP)

#: ``CapturedPacket.kind``: which transport header the packet carries
KIND_NONE, KIND_UDP, KIND_TCP, KIND_ICMP = 0, 1, 2, 3

#: indexed by kind
_TRANSPORT_HEADER_LEN = (0, UDP_HEADER_LEN, TCP_HEADER_LEN, ICMP_HEADER_LEN)

# the IPv4 / UDP / TCP headers with the fields no per-packet path reads
# turned into pad bytes
_IP_SCALARS = struct.Struct("!BxH5xB2xII")  # ver/ihl, total, proto, src, dst
_UDP_SCALARS = struct.Struct("!HHH")  # ports, length
_TCP_SCALARS = struct.Struct("!HH8xBB")  # ports, data offset, flags

#: the earlier equal payload if one is in the memo, else this one
#: (``bytes(payload)`` of a ``bytes`` is the object itself)
_shared_payload = functools.lru_cache(maxsize=MEMO_ENTRIES)(bytes)


class CapturedPacket:
    """One packet as seen at the telescope."""

    __slots__ = (
        ("timestamp", "payload", "src", "dst", "proto", "total_length")
        + ("kind", "src_port", "dst_port", "tcp_flags", "icmp_type", "icmp_code")
    )
    __hash__ = None  # == compares mutable content

    def __init__(
        self,
        *,
        timestamp: float,
        src: int,
        dst: int,
        proto: int,
        payload: bytes = b"",
        total_length: int = 0,
        kind: int = KIND_NONE,
        src_port: Optional[int] = None,
        dst_port: Optional[int] = None,
        tcp_flags: int = 0,
        icmp_type: int = 0,
        icmp_code: int = 0,
    ) -> None:
        self.timestamp = timestamp
        self.payload = payload
        self.src = src
        self.dst = dst
        self.proto = proto
        self.total_length = total_length
        self.kind = kind
        self.src_port = src_port
        self.dst_port = dst_port
        self.tcp_flags = tcp_flags
        self.icmp_type = icmp_type
        self.icmp_code = icmp_code

    @classmethod
    def from_bytes(cls, timestamp: float, data: bytes) -> "CapturedPacket":
        """Parse IPv4 wire bytes into a record, in one pass.

        IP-level damage (truncation, a version other than 4, IHL < 5,
        cut options) raises ``ValueError``.  Unknown transport
        protocols, and transport headers that do not parse, keep the
        whole IP payload and :data:`KIND_NONE` — the classifier treats
        them as non-QUIC.
        """
        n = len(data)
        if n < IPV4_HEADER_LEN:
            raise ValueError("IPv4 header truncated")
        ver_ihl, total, proto, src, dst = _IP_SCALARS.unpack_from(data)
        if ver_ihl >> 4 != 4:
            raise ValueError(f"not an IPv4 packet (version={ver_ihl >> 4})")
        ihl = ver_ihl & 0xF
        if ihl < 5:
            raise ValueError(f"invalid IHL {ihl}")
        offset = ihl * 4  # of the IP payload, then of the transport payload
        if n < offset:
            raise ValueError("IPv4 options truncated")
        end = total if offset <= total < n else n
        kind = KIND_NONE
        src_port = dst_port = None
        tcp_flags = icmp_type = icmp_code = 0
        if proto == _UDP:
            if end - offset >= UDP_HEADER_LEN:
                sport, dport, length = _UDP_SCALARS.unpack_from(data, offset)
                if length >= UDP_HEADER_LEN:
                    kind, src_port, dst_port = KIND_UDP, sport, dport
                    if offset + length < end:
                        end = offset + length
                    offset += UDP_HEADER_LEN
        elif proto == _TCP:
            if end - offset >= TCP_HEADER_LEN:
                sport, dport, offset_byte, flags = _TCP_SCALARS.unpack_from(
                    data, offset
                )
                data_offset = (offset_byte >> 4) * 4
                if TCP_HEADER_LEN <= data_offset <= end - offset:
                    kind, src_port, dst_port = KIND_TCP, sport, dport
                    tcp_flags = flags
                    offset += data_offset
        elif proto == _ICMP:
            if end - offset >= ICMP_HEADER_LEN:
                kind, icmp_type, icmp_code = KIND_ICMP, data[offset], data[offset + 1]
                offset += ICMP_HEADER_LEN
        self = object.__new__(cls)
        self.timestamp = timestamp
        self.payload = _shared_payload(data[offset:end])
        self.src = src
        self.dst = dst
        self.proto = proto
        self.total_length = total
        self.kind = kind
        self.src_port = src_port
        self.dst_port = dst_port
        self.tcp_flags = tcp_flags
        self.icmp_type = icmp_type
        self.icmp_code = icmp_code
        return self

    @property
    def wire_length(self) -> int:
        """Total IPv4 length: the length field, or derived when it is 0."""
        return self.total_length or (
            IPV4_HEADER_LEN + _TRANSPORT_HEADER_LEN[self.kind] + len(self.payload)
        )

    # -- value semantics ----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(
            getattr(self, slot) == getattr(other, slot)
            for slot in CapturedPacket.__slots__
        )

    def __repr__(self) -> str:
        proto = {1: "ICMP", 6: "TCP", 17: "UDP"}.get(self.proto, str(self.proto))
        ports = ""
        if self.src_port is not None:
            ports = f" {self.src_port}->{self.dst_port}"
        return (
            f"CapturedPacket(t={self.timestamp:.3f} {proto} "
            f"{format_ipv4(self.src)}->{format_ipv4(self.dst)}{ports} "
            f"len={len(self.payload)})"
        )
