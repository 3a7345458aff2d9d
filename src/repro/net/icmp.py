"""ICMP header serialization and parsing (RFC 792).

ICMP backscatter at a telescope is dominated by echo replies (to
spoofed echo-request floods) and destination-unreachable messages
(to spoofed UDP floods); both are modeled.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass, field

from repro.net.checksum import internet_checksum

_HEADER = struct.Struct("!BBHHH")
HEADER_LEN = _HEADER.size  # 8


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
        head = _HEADER.pack(self.icmp_type, self.code, 0, self.identifier, self.sequence)
        self.checksum = internet_checksum(head + payload)
        return head[:2] + self.checksum.to_bytes(2, "big") + head[4:] + payload

    @classmethod
    def parse(cls, data: bytes) -> tuple["IcmpHeader", bytes]:
        if len(data) < HEADER_LEN:
            raise ValueError("ICMP header truncated")
        icmp_type, code, checksum, ident, seq = _HEADER.unpack_from(data)
        header = cls(
            icmp_type=icmp_type,
            code=code,
            identifier=ident,
            sequence=seq,
            checksum=checksum,
        )
        return header, data[HEADER_LEN:]
