"""The QUIC payload dissector.

Port-based selection alone misclassifies stray UDP/443 traffic, so the
paper validates every candidate with Wireshark's dissector.  This is
that dissector, built from scratch on the :mod:`repro.quic` substrate:

- walks coalesced long-header packets (Initial / 0-RTT / Handshake /
  Retry / Version Negotiation) using the RFC 8999 invariants;
- accepts short-header (1-RTT) packets only with enough bytes to hold a
  connection ID and a header-protection sample (a telescope cannot
  delimit short-header DCIDs, so this mirrors Wireshark's heuristic);
- for *client* Initials, derives the version's initial keys from the
  wire DCID and decrypts, exposing the TLS ClientHello exactly the way
  Wireshark shows it;
- for *server* Initials (backscatter), notes that no plaintext
  ClientHello is present and checks the zero-length DCID validity
  condition from Section 5.2 of the paper.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from typing import Optional

from repro.quic import tls
from repro.quic.crypto import MEMO_ENTRIES, DecryptError, derive_initial_keys
from repro.quic.frames import CryptoFrame, FrameParseError, crypto_payload
from repro.quic.header import (
    HeaderParseError,
    LongHeader,
    PacketType,
    RetryPacket,
    ShortHeader,
    VersionNegotiationPacket,
)
from repro.quic.packet import split_datagram, unprotect_initial
from repro.quic.versions import is_greased, version_by_value

#: Minimum short-header datagram the dissector accepts: first byte +
#: 8-byte CID + 1-byte packet number + 16-byte sample.
MIN_SHORT_HEADER_LEN = 26

# Legacy Google QUIC public flags (pre-IETF wire format).
_GQUIC_FLAG_VERSION = 0x01
_GQUIC_FLAG_CID = 0x08
#: minimum gQUIC client packet: flags + 8B CID + 4B version + pn
MIN_GQUIC_LEN = 14


class MalformedReason(enum.Enum):
    """Why a UDP/443 payload was rejected as non-QUIC.

    The closed taxonomy the pipeline tallies hostile traffic under
    (``class_counts['malformed:<reason>']``,
    ``repro_malformed_packets_total{reason=...}``): a telescope ingests
    arbitrary Internet garbage, so the reject path needs
    bounded-cardinality classifications, not free-form error strings.
    The reference table in ``docs/ROBUSTNESS.md`` is kept in sync by
    ``tests/test_docs_robustness_sync.py``.
    """

    #: zero-length UDP payload
    EMPTY = "empty"
    #: first byte has neither the long-header form bit nor the fixed bit
    NO_FIXED_BIT = "no-fixed-bit"
    #: long header ends before version/CID fields are complete
    TRUNCATED_HEADER = "truncated-header"
    #: connection-ID length byte truncated, > 20, or CID bytes missing
    BAD_CONNECTION_ID = "bad-connection-id"
    #: token/length varint truncated or malformed
    BAD_VARINT = "bad-varint"
    #: version negotiation with an empty or non-multiple-of-4 list
    BAD_VERSION_NEGOTIATION = "bad-version-negotiation"
    #: token, retry tag, or declared payload extends past the datagram
    TRUNCATED_PAYLOAD = "truncated-payload"
    #: long-header length field below the 4-byte RFC 9001 minimum
    PAYLOAD_TOO_SHORT = "payload-too-short"
    #: short-header datagram smaller than CID + pn + HP sample
    SHORT_TOO_SHORT = "short-too-short"
    #: a coalesced packet claims a zero-length slice (parser loop guard)
    NO_ADVANCE = "no-advance"
    #: UDP packet with 443 on both sides (classifier-level rejection)
    PORT_CONFLICT = "port-conflict"
    #: parser raised outside its typed error contract (defensive catch)
    INTERNAL_ERROR = "internal-error"
    #: typed parse error without a more specific classification
    MALFORMED = "malformed"


def classify_reason(slug: str) -> MalformedReason:
    """Map a :class:`HeaderParseError` reason slug onto the taxonomy."""
    try:
        return MalformedReason(slug)
    except ValueError:
        return MalformedReason.MALFORMED


@dataclass(frozen=True, slots=True)
class DissectedPacket:
    """Summary of one QUIC packet inside a datagram.

    Immutable: the dissector's memo hands the *same* instance to every
    consumer of a repeated payload, so any in-place mutation would
    silently corrupt the dissection of later packets.
    """

    packet_type: PacketType
    version: Optional[int] = None
    version_name: Optional[str] = None
    dcid: bytes = b""
    scid: bytes = b""
    token_length: int = 0
    has_plain_client_hello: bool = False
    client_hello_sni: Optional[str] = None
    decrypted: bool = False


@dataclass(frozen=True, slots=True)
class Dissection:
    """Result of dissecting one UDP payload.

    Immutable and shared across cache hits, like
    :class:`DissectedPacket`.
    """

    valid: bool
    packets: tuple = ()
    error: Optional[str] = None
    #: typed classification of the failure; ``None`` when ``valid``.
    reason: Optional[MalformedReason] = None

    @property
    def scids(self) -> list:
        return [p.scid for p in self.packets if p.scid]

    @property
    def has_retry(self) -> bool:
        return any(p.packet_type is PacketType.RETRY for p in self.packets)

    @property
    def has_long_header(self) -> bool:
        """Any Initial/Handshake/0-RTT packet in the datagram."""
        return any(p.packet_type in _LONG_HEADER_TYPES for p in self.packets)

    @property
    def all_dcids_empty(self) -> bool:
        """The backscatter validity check of Section 5.2."""
        long_headers = [
            p for p in self.packets if p.packet_type in _LONG_HEADER_TYPES
        ]
        return bool(long_headers) and all(p.dcid == b"" for p in long_headers)


_LONG_HEADER_TYPES = frozenset(
    (PacketType.INITIAL, PacketType.HANDSHAKE, PacketType.ZERO_RTT)
)


class QuicDissector:
    """Stateless dissector over UDP payloads.

    Dissection is pure in the payload bytes, so :meth:`dissect` is a
    ``functools.lru_cache`` of :data:`~repro.quic.crypto.MEMO_ENTRIES`
    over :meth:`dissect_once`: scan tools replay a bounded set of
    handshake templates, and a telescope sees each template many
    thousands of times, while backscatter carries a fresh server SCID
    per connection and never recurs.  ``cache_hits``/``cache_misses``
    read the memo's own tallies for the pipeline's metrics.  The memo
    wraps a bound method, so a dropped dissector's entries wait for the
    next garbage collection.
    """

    def __init__(self) -> None:
        #: :meth:`dissect_once`, memoized by payload.  ``valid=False``
        #: means the payload is not QUIC (the classifier then excludes
        #: the packet, as the paper excludes Wireshark failures).
        self.dissect = functools.lru_cache(maxsize=MEMO_ENTRIES)(self.dissect_once)

    @property
    def cache_hits(self) -> int:
        return self.dissect.cache_info().hits

    @property
    def cache_misses(self) -> int:
        return self.dissect.cache_info().misses

    def dissect_once(self, payload: bytes) -> Dissection:
        """Dissect one UDP payload into QUIC packet summaries, uncached.

        Entry point for callers that memoize at a higher level — the
        batch lane's fallback path caches :data:`LaneEntry` tuples
        keyed by payload, so routing through :meth:`dissect` would
        double-store every fallback payload and double-count the
        hit/miss telemetry.
        """
        # The never-raise contract: telescope input is arbitrary
        # Internet bytes, so a parser bug must degrade to a tallied
        # malformed classification, never to a crashed pipeline.
        try:
            return self._dissect_strict(payload)
        except Exception as exc:  # noqa: BLE001 - contract boundary
            return Dissection(
                valid=False,
                error=f"dissector error: {exc}",
                reason=MalformedReason.INTERNAL_ERROR,
            )

    def _dissect_strict(self, payload: bytes) -> Dissection:
        if not payload:
            return Dissection(
                valid=False, error="empty payload", reason=MalformedReason.EMPTY
            )
        # Cheap first-byte pre-check: with neither the long-header form
        # bit (0x80) nor the fixed bit (0x40) set, the header parser
        # always rejects the first packet — skip parsing (and its
        # exception overhead) for the stray-UDP bulk, and go straight to
        # the legacy gQUIC check (whose public-flags byte also has both
        # bits clear).  The error string matches the parser's, keeping
        # results bit-identical.
        if not payload[0] & 0xC0:
            gquic = self._dissect_gquic(payload)
            if gquic is not None:
                return gquic
            return Dissection(
                valid=False,
                error="short header without fixed bit",
                reason=MalformedReason.NO_FIXED_BIT,
            )
        try:
            views = split_datagram(payload)
        except HeaderParseError as exc:
            gquic = self._dissect_gquic(payload)
            if gquic is not None:
                return gquic
            return Dissection(
                valid=False, error=str(exc), reason=classify_reason(exc.reason)
            )
        packets = []
        for view in views:
            if isinstance(view, ShortHeader):
                if len(payload) - view.start < MIN_SHORT_HEADER_LEN:
                    return Dissection(
                        valid=False,
                        error="short header too short",
                        reason=MalformedReason.SHORT_TOO_SHORT,
                    )
                packets.append(DissectedPacket(packet_type=PacketType.ONE_RTT))
                continue
            if isinstance(view, VersionNegotiationPacket):
                packets.append(
                    DissectedPacket(
                        packet_type=PacketType.VERSION_NEGOTIATION,
                        dcid=view.dcid,
                        scid=view.scid,
                    )
                )
                continue
            if isinstance(view, RetryPacket):
                known = version_by_value(view.version)
                packets.append(
                    DissectedPacket(
                        packet_type=PacketType.RETRY,
                        version=view.version,
                        version_name=known.name if known else None,
                        dcid=view.dcid,
                        scid=view.scid,
                        token_length=len(view.token),
                    )
                )
                continue
            packets.append(self._dissect_long(payload, view))
        return Dissection(valid=True, packets=tuple(packets))

    def _dissect_gquic(self, payload: bytes) -> Optional[Dissection]:
        """Recognize legacy Google QUIC public headers (Q043/Q046).

        gQUIC predates the RFC 8999 invariants: a public-flags byte
        (version bit 0x01, connection-ID bit 0x08, both cleared in the
        0x80/0x40 positions IETF QUIC uses), an 8-byte connection ID and
        an ASCII version tag like ``Q043``.  Scanners still probe for
        these servers, so the classifier must count them as QUIC.
        """
        if len(payload) < MIN_GQUIC_LEN:
            return None
        flags = payload[0]
        if not (flags & _GQUIC_FLAG_VERSION) or not (flags & _GQUIC_FLAG_CID):
            return None
        if flags & 0xC0:
            return None  # collides with IETF header space
        version_tag = payload[9:13]
        if not (version_tag[0:1] == b"Q" and version_tag[1:].isdigit()):
            return None
        version_value = int.from_bytes(version_tag, "big")
        known = version_by_value(version_value)
        summary = DissectedPacket(
            packet_type=PacketType.GQUIC,
            version=version_value,
            version_name=known.name if known else f"gQUIC-{version_tag.decode()}",
            dcid=payload[1:9],
            has_plain_client_hello=b"CHLO" in payload[13:40],
        )
        return Dissection(valid=True, packets=(summary,))

    def _dissect_long(self, payload: bytes, view: LongHeader) -> DissectedPacket:
        known = version_by_value(view.version)
        decrypted = False
        has_plain_client_hello = False
        client_hello_sni: Optional[str] = None
        unknown_version = (
            view.version != 0 and known is None and not is_greased(view.version)
        )
        # Unknown versions get header-level dissection only, like
        # Wireshark with an unsupported draft.  Client Initials are
        # keyed on the wire DCID: decryptable.
        should_try = (
            not unknown_version
            and known is not None
            and known.ietf_layout
            and view.packet_type is PacketType.INITIAL
            and len(view.dcid) > 0
        )
        if should_try:
            try:
                client_keys, _server_keys = derive_initial_keys(known, view.dcid)
                _pn, frames = unprotect_initial(payload, view, client_keys)
            except (DecryptError, FrameParseError, HeaderParseError, ValueError):
                frames = None
            if frames is not None:
                decrypted = True
                stream = crypto_payload(
                    [f for f in frames if isinstance(f, CryptoFrame)]
                )
                if stream and tls.looks_like_client_hello(stream):
                    has_plain_client_hello = True
                    try:
                        client_hello_sni = tls.ClientHello.parse(stream).server_name
                    except tls.TlsParseError:
                        pass
        return DissectedPacket(
            packet_type=view.packet_type,
            version=view.version,
            version_name=known.name if known else None,
            dcid=view.dcid,
            scid=view.scid,
            token_length=len(view.token),
            has_plain_client_hello=has_plain_client_hello,
            client_hello_sni=client_hello_sni,
            decrypted=decrypted,
        )
