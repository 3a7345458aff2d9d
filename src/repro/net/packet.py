"""The packet record shared by generators, pcaps, and the pipeline.

A :class:`CapturedPacket` is a timestamped IPv4 packet with its
transport header and opaque transport payload.  It is the pipeline's
hottest object — one instance per packet — so it is slotted and
everything the per-packet path (``BatchLane.observe_packets``) reads
is a plain scalar slot: ``timestamp``, ``src``, ``dst``, ``proto``,
``src_port`` / ``dst_port`` (``None`` without a parsed UDP/TCP header),
``payload``, ``kind`` (``KIND_*``: which transport header parsed),
``tcp_flags``, ``icmp_type`` / ``icmp_code`` (0 for other kinds),
``total_length`` (the IPv4 length field, 0 until packed) and the
derived :attr:`~CapturedPacket.wire_length`.  Nothing derivable is
stored twice: readers branch on ``proto`` itself.

The constructor is eager: generators hand over real header objects and
the scalars are copied out of them once.
:meth:`CapturedPacket.from_bytes` is lazy: one pass over the wire bytes
fills the scalars and keeps only the header bytes; ``packet.ip`` and
``packet.transport`` build (and cache) the header objects on first
access, with every field the wire carried (checksums, TTL, seq/ack).
Equality, pickling, ``to_bytes`` and ``repr`` do not depend on which
way a packet came in or whether its headers were materialised yet.

Parsed payloads are shared: :meth:`~CapturedPacket.from_bytes` passes
each payload through one module-level ``functools.lru_cache`` of
:data:`~repro.util.batching.MEMO_ENTRIES` (:data:`_shared_payload`), so
a payload equal to one parsed recently is that same immutable object.
Scanners replay a few probe templates, so a capture held as packets
keeps one copy of each template instead of one per packet; payloads
that never recur (backscatter) pass through and fall out of the bound.
``src`` and ``total_length`` go through a second memo of that bound
(:data:`_shared_int`): two research scanners, in a few datagram sizes,
send almost all of a telescope's QUIC traffic.
"""

from __future__ import annotations

import functools
import struct
from typing import Optional, Union

from repro.net import icmp, ipv4, tcp, udp
from repro.net.addresses import format_ipv4
from repro.net.icmp import IcmpHeader
from repro.net.ipv4 import IPProto, IPv4Header
from repro.net.tcp import TcpHeader
from repro.net.udp import UdpHeader
from repro.util.batching import MEMO_ENTRIES

TransportHeader = Union[UdpHeader, TcpHeader, IcmpHeader]

_UDP = int(IPProto.UDP)
_TCP = int(IPProto.TCP)
_ICMP = int(IPProto.ICMP)

#: ``CapturedPacket.kind``: which transport header the packet carries
KIND_NONE, KIND_UDP, KIND_TCP, KIND_ICMP = 0, 1, 2, 3

#: indexed by kind
_TRANSPORT_HEADER = (None, UdpHeader, TcpHeader, IcmpHeader)
_TRANSPORT_HEADER_LEN = (0, udp.HEADER_LEN, tcp.HEADER_LEN, icmp.HEADER_LEN)
_KIND_OF_HEADER = {header: kind for kind, header in enumerate(_TRANSPORT_HEADER)}

# ``ipv4._HEADER`` / ``udp._HEADER`` / ``tcp._HEADER`` with the fields no
# per-packet path reads turned into pad bytes
_IP_SCALARS = struct.Struct("!BxH5xB2xII")  # ver/ihl, total, proto, src, dst
_UDP_SCALARS = struct.Struct("!HHH")  # ports, length
_TCP_SCALARS = struct.Struct("!HH8xBB")  # ports, data offset, flags

#: the earlier equal payload if one is in the memo, else this one
#: (``bytes(payload)`` of a ``bytes`` is the object itself)
_shared_payload = functools.lru_cache(maxsize=MEMO_ENTRIES)(bytes)
#: the same for the ``src`` and ``total_length`` ints
_shared_int = functools.lru_cache(maxsize=MEMO_ENTRIES)(int)


class CapturedPacket:
    """One packet as seen at the telescope."""

    __slots__ = (
        ("timestamp", "payload", "_ip", "_transport", "_head")
        + ("src", "dst", "proto", "total_length")
        + ("kind", "src_port", "dst_port", "tcp_flags", "icmp_type", "icmp_code")
    )
    __hash__ = None  # == compares mutable content

    def __init__(
        self,
        timestamp: float,
        ip: IPv4Header,
        transport: Optional[TransportHeader],
        payload: bytes = b"",
    ) -> None:
        self.timestamp = timestamp
        self.payload = payload
        self._ip = ip
        self._transport = transport
        self._head = None
        self.src = ip.src
        self.dst = ip.dst
        self.proto = ip.proto
        self.total_length = ip.total_length
        kind = _KIND_OF_HEADER.get(type(transport), KIND_NONE)
        self.kind = kind
        self.src_port = self.dst_port = None
        self.tcp_flags = self.icmp_type = self.icmp_code = 0
        if kind == KIND_ICMP:
            self.icmp_type = int(transport.icmp_type)
            self.icmp_code = int(transport.code)
        elif kind:
            self.src_port = transport.src_port
            self.dst_port = transport.dst_port
            if kind == KIND_TCP:
                self.tcp_flags = int(transport.flags)

    # -- wire round-trip ---------------------------------------------------

    @classmethod
    def from_bytes(cls, timestamp: float, data: bytes) -> "CapturedPacket":
        """Parse wire bytes into a record, in one pass and without
        building header objects (see :attr:`ip` / :attr:`transport`).

        IP-level damage raises ``ValueError`` exactly like
        :meth:`IPv4Header.parse`.  Unknown transport protocols, and
        transport headers that do not parse, keep the whole IP payload
        and a ``None`` transport header — the classifier treats them as
        non-QUIC.
        """
        n = len(data)
        if n < ipv4.HEADER_LEN:
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
            if end - offset >= udp.HEADER_LEN:
                sport, dport, length = _UDP_SCALARS.unpack_from(data, offset)
                if length >= udp.HEADER_LEN:
                    kind, src_port, dst_port = KIND_UDP, sport, dport
                    if offset + length < end:
                        end = offset + length
                    offset += udp.HEADER_LEN
        elif proto == _TCP:
            if end - offset >= tcp.HEADER_LEN:
                sport, dport, offset_byte, flags = _TCP_SCALARS.unpack_from(
                    data, offset
                )
                data_offset = (offset_byte >> 4) * 4
                if tcp.HEADER_LEN <= data_offset <= end - offset:
                    kind, src_port, dst_port = KIND_TCP, sport, dport
                    tcp_flags = flags
                    offset += data_offset
        elif proto == _ICMP:
            if end - offset >= icmp.HEADER_LEN:
                kind, icmp_type, icmp_code = KIND_ICMP, data[offset], data[offset + 1]
                offset += icmp.HEADER_LEN
        self = object.__new__(cls)
        self.timestamp = timestamp
        self.payload = _shared_payload(data[offset:end])
        self._ip = self._transport = None
        self._head = data[:offset]
        self.src = _shared_int(src)
        self.dst = dst
        self.proto = proto
        self.total_length = _shared_int(total)
        self.kind = kind
        self.src_port = src_port
        self.dst_port = dst_port
        self.tcp_flags = tcp_flags
        self.icmp_type = icmp_type
        self.icmp_code = icmp_code
        return self

    @property
    def ip(self) -> IPv4Header:
        """The IPv4 header; built from the kept header bytes on first
        access when the packet came from :meth:`from_bytes`."""
        ip = self._ip
        if ip is None:
            ip = self._ip = IPv4Header.parse(self._head)[0]
        return ip

    @property
    def transport(self) -> Optional[TransportHeader]:
        """The transport header (``None`` for :data:`KIND_NONE`); built
        lazily like :attr:`ip`."""
        transport = self._transport
        if transport is None and self.kind:
            head = self._head
            header = _TRANSPORT_HEADER[self.kind]
            transport = self._transport = header.parse(head[(head[0] & 0xF) * 4 :])[0]
        return transport

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

    @property
    def wire_length(self) -> int:
        """Total IPv4 length without serializing."""
        return self.total_length or (
            ipv4.HEADER_LEN + _TRANSPORT_HEADER_LEN[self.kind] + len(self.payload)
        )

    # -- value semantics ----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.timestamp, self.ip, self.transport, self.payload) == (
            other.timestamp,
            other.ip,
            other.transport,
            other.payload,
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
