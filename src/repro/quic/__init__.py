"""QUIC substrate: RFC 9000/9001 wire format and handshake machinery.

This package implements everything the reproduction needs from QUIC
itself, from scratch:

- :mod:`repro.quic.versions` — version registry (v1, IETF drafts,
  Facebook mvfst variants, Google QUIC), including per-version initial
  salts.
- :mod:`repro.quic.crypto` — HKDF (real, per RFC 5869) and the packet
  protection AEAD.  AES-GCM is not available offline, so the AEAD is a
  documented substitution with identical ciphertext expansion; see the
  module docstring and DESIGN.md.
- :mod:`repro.quic.tls` — minimal TLS 1.3 handshake messages (Client
  Hello, Server Hello, EncryptedExtensions, Certificate, ...) with
  realistic sizes.
- :mod:`repro.quic.frames` — QUIC frames (PADDING, PING, ACK, CRYPTO,
  CONNECTION_CLOSE, NEW_CONNECTION_ID, ...).
- :mod:`repro.quic.header` — long/short headers, Retry and Version
  Negotiation packets.
- :mod:`repro.quic.packet` — packet protection, datagram assembly and
  coalescing, Initial padding rules.
- :mod:`repro.quic.retry` — Retry token mint/validate and integrity tag.
- :mod:`repro.quic.connection` — client/server handshake endpoints that
  produce the exact datagram trains the paper describes (Initial+
  Handshake, Handshake, then keep-alive PINGs).
"""

from repro.quic.versions import (
    QUIC_V1,
    DRAFT_27,
    DRAFT_29,
    MVFST_27,
    MVFST_EXP,
    QuicVersion,
    version_by_value,
)
from repro.quic.header import (
    LongHeader,
    PacketType,
    RetryPacket,
    ShortHeader,
    VersionNegotiationPacket,
    parse_header,
)
from repro.quic.frames import (
    AckFrame,
    ConnectionCloseFrame,
    CryptoFrame,
    Frame,
    FrameType,
    HandshakeDoneFrame,
    NewConnectionIdFrame,
    NewTokenFrame,
    PaddingFrame,
    PingFrame,
    StreamFrame,
    parse_frames,
    serialize_frames,
)
from repro.quic.packet import (
    PlainPacket,
    build_datagram,
    protect_packet,
    protect_short_packet,
    split_datagram,
    unprotect_initial,
    unprotect_short_packet,
)
from repro.quic.resumption import ResumptionState, SessionCache, early_data_keys
from repro.quic.connection import (
    ClientConnection,
    HandshakeResult,
    ServerConnection,
)
from repro.quic.retry import RetryTokenMinter

__all__ = [
    "QUIC_V1",
    "DRAFT_27",
    "DRAFT_29",
    "MVFST_27",
    "MVFST_EXP",
    "QuicVersion",
    "version_by_value",
    "LongHeader",
    "PacketType",
    "RetryPacket",
    "ShortHeader",
    "VersionNegotiationPacket",
    "parse_header",
    "AckFrame",
    "ConnectionCloseFrame",
    "CryptoFrame",
    "Frame",
    "FrameType",
    "HandshakeDoneFrame",
    "NewConnectionIdFrame",
    "NewTokenFrame",
    "PaddingFrame",
    "PingFrame",
    "StreamFrame",
    "parse_frames",
    "serialize_frames",
    "PlainPacket",
    "build_datagram",
    "protect_packet",
    "protect_short_packet",
    "split_datagram",
    "unprotect_initial",
    "unprotect_short_packet",
    "ResumptionState",
    "SessionCache",
    "early_data_keys",
    "ClientConnection",
    "HandshakeResult",
    "ServerConnection",
    "RetryTokenMinter",
]
