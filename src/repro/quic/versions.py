"""QUIC version registry.

The paper observes several concurrently deployed QUIC variants in
backscatter: ``draft-29`` (78% of Google attack traffic),
``mvfst-draft-27`` (95% of Facebook attack traffic), plus IETF QUIC v1
and legacy Google QUIC on the scanning side.  Each version carries its
own *initial salt*, which keys Initial packet protection; getting the
salt registry right is what lets the dissector decrypt client Initials
for any version it knows, exactly like Wireshark.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class QuicVersion:
    """One deployable QUIC version."""

    value: int
    name: str
    initial_salt: bytes
    #: True for versions negotiated by IETF endpoints (long header layout
    #: per RFC 8999); legacy gQUIC uses its own layout and is only
    #: identified, never dissected in depth.
    ietf_layout: bool = True

    def __str__(self) -> str:
        return f"{self.name}(0x{self.value:08x})"


# Initial salts from RFC 9001 and the corresponding drafts.
QUIC_V1 = QuicVersion(
    0x00000001,
    "v1",
    bytes.fromhex("38762cf7f55934b34d179ae6a4c80cadccbb7f0a"),
)
DRAFT_29 = QuicVersion(
    0xFF00001D,
    "draft-29",
    bytes.fromhex("afbfec289993d24c9e9786f19c6111e04390a899"),
)
DRAFT_27 = QuicVersion(
    0xFF00001B,
    "draft-27",
    bytes.fromhex("c3eef712c72ebb5a11a7d2432bb46365bef9f502"),
)
#: Facebook's mvfst deployments advertise vendor version numbers; the
#: mvfst-draft-27 variant the paper reports maps onto draft-27 wire
#: format with a facebook version value.
MVFST_27 = QuicVersion(
    0xFACEB002,
    "mvfst-draft-27",
    bytes.fromhex("c3eef712c72ebb5a11a7d2432bb46365bef9f502"),
)
MVFST_EXP = QuicVersion(
    0xFACEB00E,
    "mvfst-exp",
    bytes.fromhex("c3eef712c72ebb5a11a7d2432bb46365bef9f502"),
)
#: Legacy Google QUIC ("Q043"/"Q046" on the wire); still seen in scans.
GQUIC_Q043 = QuicVersion(0x51303433, "gQUIC-Q043", b"\x00" * 20, ietf_layout=False)
GQUIC_Q046 = QuicVersion(0x51303436, "gQUIC-Q046", b"\x00" * 20, ietf_layout=False)

#: The version value of a Version Negotiation packet.
VERSION_NEGOTIATION = 0x00000000

KNOWN_VERSIONS: tuple[QuicVersion, ...] = (
    QUIC_V1,
    DRAFT_29,
    DRAFT_27,
    MVFST_27,
    MVFST_EXP,
    GQUIC_Q043,
    GQUIC_Q046,
)

_BY_VALUE = {v.value: v for v in KNOWN_VERSIONS}


def version_by_value(value: int) -> QuicVersion | None:
    """Look up a known version; ``None`` for unknown or greased values."""
    return _BY_VALUE.get(value)


def is_greased(value: int) -> bool:
    """RFC 9000 §15: versions of the form 0x?a?a?a?a are reserved to
    exercise version negotiation ("greasing")."""
    return (value & 0x0F0F0F0F) == 0x0A0A0A0A
