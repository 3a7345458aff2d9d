"""QUIC victim responses: what a QUIC flood looks like from a telescope.

A randomly spoofed flood against a victim makes the victim answer
addresses it never talked to; the slice of those answers landing in the
telescope prefix is *backscatter*.  :class:`QuicVictimResponder` emits
the QUIC response train per spoofed Initial — Initial(ServerHello) +
Handshake coalesced, then a Handshake datagram, optionally keep-alive
PINGs and timeout retransmissions — with zero-length DCIDs and fresh or
cached SCIDs depending on the provider's connection-ID policy (the
Figure 9 Google/Facebook difference).

A TCP SYN or ICMP echo flood's victim answers each request with one
fixed-shape record, which ``AttackTrafficModel.flood_records``
(``telescope/attacks.py``) writes itself.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

from repro.util.rng import SeededRng
from repro.quic import crypto, tls
from repro.quic.crypto import derive_handshake_secret, derive_initial_keys
from repro.quic.frames import AckFrame, CryptoFrame, PingFrame, serialize_frames
from repro.quic.header import LongHeader, PacketType
from repro.quic.packet import PlainPacket, protect_packet
from repro.quic.versions import KNOWN_VERSIONS, QUIC_V1, QuicVersion

_VERSIONS_BY_NAME = {v.name: v for v in KNOWN_VERSIONS}


# The compiled-flight tallies, published as ``cache="flight"`` of the
# template-cache family (``quic.crypto.M_CACHE_*``) by the collector in
# ``telescope/scanners.py``, so the responder hot path stays
# metric-free.  The flights themselves live on each responder and die
# with it — only these three integers are process-wide.
_FLIGHT_TALLY = {"hits": 0, "misses": 0, "size": 0}


def _release_flights(flights: dict) -> None:
    """A responder died: its compiled flights are no longer held."""
    _FLIGHT_TALLY["size"] -= sum(1 for flight in flights.values() if flight)


def _initial_frames(sh_random: bytes) -> list:
    """Payload of the server Initial: the ACK and the ServerHello."""
    return [AckFrame(0), CryptoFrame(0, tls.ServerHello(random=sh_random).serialize())]


#: Where the 32-byte ServerHello random sits inside that payload (every
#: compiled sealer is checked against ``protect_packet`` before use, so
#: a payload shape this misreads falls back to the canonical path).
_SH_RANDOM_AT = serialize_frames(_initial_frames(b"\xff" * 32)).index(b"\xff" * 32)


def _compile_sealer(plain: PlainPacket, keys, expected: bytes):
    """Compile ``protect_packet(plain, keys)`` into ``seal(scid, fill=b"")``.

    Keys, nonce and keystream follow from ``(version, attacker DCID,
    packet number)``; the SCID only enters as header bytes inside the
    AAD.  So the ciphertext is a constant — but for the server Initial,
    whose 32 bytes at :data:`_SH_RANDOM_AT` are the per-response
    ServerHello random ``fill`` — the HMAC state is advanced once through
    ``nonce ‖ header-up-to-SCID``, and a call costs one state copy +
    update, one header-protection mask (a constant too when its sample
    lies inside constant ciphertext) and one concatenation.  ``scid``
    must be as long as ``plain``'s (its length byte is compiled in).
    Returns ``None`` unless the sealer reproduces ``expected``, the
    canonical bytes of ``plain``, byte for byte.
    """
    header = plain.header
    pn_bytes = crypto.encode_packet_number(plain.packet_number, -1)
    pn_len = len(pn_bytes)
    # protect_packet's rule: PADDING up to a sampleable ciphertext
    payload = serialize_frames(plain.frames).ljust(max(1, 4 - pn_len), b"\x00")
    size = len(payload)
    prefix = header.pack_prefix(pn_len, pn_len + size + crypto.AEAD_TAG_LEN)
    cut = 7 + len(header.dcid)
    first, head_rest = prefix[0], prefix[1:cut]
    tail = prefix[cut + len(header.scid) :]
    nonce = crypto._nonce(keys.iv, plain.packet_number)
    stream = int.from_bytes(crypto._keystream(keys.key, nonce, size), "big")
    mac = crypto._hmac_base(keys.key).copy()
    mac.update(nonce + prefix[:cut])
    pn_int = int.from_bytes(pn_bytes, "big")
    sample_at = 4 - pn_len
    sample_end = sample_at + crypto.HP_SAMPLE_LEN
    hp_mask, hp = crypto.header_protection_mask, keys.hp
    from_bytes = int.from_bytes

    if header.packet_type is PacketType.INITIAL:
        at = _SH_RANDOM_AT
        left, probe, right = payload[:at], payload[at : at + 32], payload[at + 32 :]
        fixed = fixed_mask = None
    else:
        left = probe = right = b""  # unused: the ciphertext is ``fixed``
        fixed = (from_bytes(payload, "big") ^ stream).to_bytes(size, "big")
        fixed_mask = (
            hp_mask(hp, fixed[sample_at:sample_end]) if sample_end <= size else None
        )

    def seal(scid: bytes, fill: bytes = b"") -> bytes:
        ciphertext = fixed or (
            from_bytes(left + fill + right, "big") ^ stream
        ).to_bytes(size, "big")
        tagger = mac.copy()
        tagger.update(scid + tail + pn_bytes + ciphertext)
        sealed = ciphertext + tagger.digest()[: crypto.AEAD_TAG_LEN]
        mask = fixed_mask or hp_mask(hp, sealed[sample_at:sample_end])
        return (
            bytes((first ^ (mask[0] & 0x0F),))
            + head_rest
            + scid
            + tail
            + (pn_int ^ from_bytes(mask[1 : 1 + pn_len], "big")).to_bytes(pn_len, "big")
            + sealed
        )

    return seal if seal(header.scid, probe) == expected else None


def _compile_flight(parts: list, packets: list):
    """One sealer per packet of a response flight, each checked against
    the canonical bytes in ``packets``: ``(seal_initial, seal_rest)``, or
    ``False`` — the DCID stays on the canonical path — if any differs."""
    sealers = [
        _compile_sealer(plain, keys, expected)
        for (plain, keys), expected in zip(parts, packets)
    ]
    if None in sealers:
        return False
    return sealers[0], tuple(sealers[1:])


def version_named(name: str) -> QuicVersion:
    try:
        return _VERSIONS_BY_NAME[name]
    except KeyError:
        raise KeyError(f"unknown QUIC version name {name!r}") from None


@dataclass
class ResponderPolicy:
    """Provider-specific response behaviour."""

    version: QuicVersion = QUIC_V1
    keepalive_pings: int = 0
    #: "request" mints a new SCID per Initial (Google-like);
    #: "source" caches the SCID per spoofed client address
    #: (mvfst-like connection reuse).
    scid_policy: str = "request"
    #: probability that the unanswered flight is retransmitted once.
    retransmit_probability: float = 0.0
    #: probability that a request carries a version the victim dropped,
    #: eliciting a Version Negotiation packet instead of a flight.
    vn_probability: float = 0.05
    cert_chain_len: int = tls.DEFAULT_CERT_CHAIN_LEN
    #: attackers replay a bounded set of handshake templates, so the
    #: DCIDs the victim keys its Initial responses on repeat.
    attacker_dcid_pool: int = 24


def census_policy(internet, victim_ip: int) -> ResponderPolicy:
    """The victim's response policy, provider-aware when census-known."""
    record = internet.census.get(victim_ip)
    if record is None:
        return ResponderPolicy(retransmit_probability=0.2)
    provider = None
    for candidate in internet.content_providers:
        if candidate.name == record.provider:
            provider = candidate
            break
    return ResponderPolicy(
        version=version_named(record.versions[0]),
        keepalive_pings=provider.keepalive_pings if provider else 0,
        scid_policy="request" if record.provider == "Google" else "source",
        retransmit_probability=0.2,
    )


class QuicVictimResponder:
    """Builds the backscatter train one victim emits per spoofed Initial."""

    def __init__(
        self, victim_ip: int, rng: SeededRng, policy: ResponderPolicy
    ) -> None:
        self.victim_ip = victim_ip
        self.rng = rng.child(f"responder:{victim_ip}")
        self.policy = policy
        # The TLS flight is per-server (same certificate chain for every
        # connection) — cache it once.
        self._flight = tls.build_server_flight(
            self.rng.child("flight"), policy.cert_chain_len
        )
        self._hs_stream = self._flight.handshake_payload
        self._scid_cache: dict[int, bytes] = {}
        self._dcid_pool = [
            self.rng.randbytes(8) for _ in range(max(1, policy.attacker_dcid_pool))
        ]
        # Everything in a response flight but the SCID and the
        # ServerHello random follows from (this responder's TLS flight,
        # attacker DCID), so the compiled flights are keyed on the DCID
        # alone and owned by the responder: at most one per pool entry,
        # gone with the flood.  ``False`` marks a DCID whose compiled
        # flight failed its self-check; ``_seen_once`` holds the first
        # canonical response of a DCID until it recurs.
        self._flights: dict = {}
        self._seen_once: dict = {}
        weakref.finalize(self, _release_flights, self._flights)

    def _scid_for(self, spoofed_ip: int) -> bytes:
        if self.policy.scid_policy == "source":
            cached = self._scid_cache.get(spoofed_ip)
            if cached is None:
                cached = self.rng.randbytes(8)
                self._scid_cache[spoofed_ip] = cached
            return cached
        return self.rng.randbytes(8)

    @property
    def unique_scids(self) -> int:
        """SCIDs handed out so far under a 'source' policy."""
        return len(self._scid_cache)

    def respond_records(
        self, timestamp: float, spoofed_ip: int, spoofed_port: int
    ) -> list:
        """The train sent to ``spoofed_ip`` in response to one Initial,
        as flat gen records in time order.

        One ``(delay, payload)`` schedule feeds this and the tests'
        reference ``respond`` (``tests/reference/generator.py``), so the
        two differ only in the container built around each datagram.
        """
        victim = self.victim_ip
        return [
            (
                timestamp + delay,
                victim,
                spoofed_ip,
                28 + len(payload),
                17,
                1,
                443,
                spoofed_port,
                0,
                len(payload),
                payload,
            )
            for delay, payload in self._response_schedule(spoofed_ip)
        ]

    def _response_schedule(self, spoofed_ip: int) -> list:
        """The ``(delay, datagram_bytes)`` train for one spoofed Initial."""
        version = self.policy.version
        if self.rng.random() < self.policy.vn_probability:
            return [(0.0, self._vn_payload(spoofed_ip))]
        scid = self._scid_for(spoofed_ip)
        # The attacker's Initial carried a DCID from its template pool;
        # the victim keys its Initial-level response on it.
        attacker_dcid = self.rng.choice(self._dcid_pool)
        sh_random = self.rng.randbytes(32)

        flight = self._flights.get(attacker_dcid)
        if flight is None and attacker_dcid in self._seen_once:
            # the DCID recurred: compile, checked against its first response
            flight = self._flights[attacker_dcid] = _compile_flight(
                *self._seen_once.pop(attacker_dcid)
            )
            _FLIGHT_TALLY["size"] += bool(flight)
        if flight:
            _FLIGHT_TALLY["hits"] += 1
            seal_initial, seal_rest = flight
            packets = [seal_initial(scid, sh_random)]
            packets += [seal(scid) for seal in seal_rest]
        else:
            _FLIGHT_TALLY["misses"] += 1
            parts = self._flight_parts(version, attacker_dcid, scid, sh_random)
            packets = [protect_packet(plain, keys) for plain, keys in parts]
            if flight is None:
                # A DCID used once must cost no more than this build
                # (misconfiguration sessions draw ~3 responses over 24
                # DCIDs), so nothing is compiled until it recurs.
                self._seen_once[attacker_dcid] = (parts, packets)

        # Coalescing is plain concatenation (no padding requested).
        datagram_1 = packets[0] + packets[1]
        schedule = [(0.0, datagram_1), (0.002, packets[2])]
        for i, ping_bytes in enumerate(packets[3:], 1):
            schedule.append((0.05 * i, ping_bytes))
        if self.rng.random() < self.policy.retransmit_probability:
            # PTO fires: the whole first datagram is retransmitted.
            schedule.append((1.0, datagram_1))

        return schedule

    def _flight_parts(
        self, version, attacker_dcid: bytes, scid: bytes, sh_random: bytes
    ) -> list:
        """The flight's ``(PlainPacket, keys)`` pairs, in packet order:
        the Initial (ACK + ServerHello), the TLS flight in two Handshake
        CRYPTO packets, then the keep-alive PINGs."""
        _ckeys, server_init = derive_initial_keys(version, attacker_dcid)
        server_hs = derive_handshake_secret(version, attacker_dcid, "server hs")
        stream = self._hs_stream
        first_chunk = min(len(stream), 900)
        initial = PlainPacket(
            header=LongHeader(
                packet_type=PacketType.INITIAL,
                version=version.value,
                dcid=b"",
                scid=scid,
            ),
            packet_number=0,
            frames=_initial_frames(sh_random),
        )
        frames = [
            CryptoFrame(0, stream[:first_chunk]),
            CryptoFrame(first_chunk, stream[first_chunk:]),
        ] + [PingFrame()] * self.policy.keepalive_pings
        return [(initial, server_init)] + [
            (self._handshake_packet(number, frame, scid), server_hs)
            for number, frame in enumerate(frames)
        ]

    def _handshake_packet(self, packet_number: int, frame, scid: bytes) -> PlainPacket:
        return PlainPacket(
            header=LongHeader(
                packet_type=PacketType.HANDSHAKE,
                version=self.policy.version.value,
                dcid=b"",
                scid=scid,
            ),
            packet_number=packet_number,
            frames=[frame],
        )

    def _vn_payload(self, spoofed_ip: int) -> bytes:
        """The victim rejects a stale-version Initial with a VN packet."""
        from repro.quic.header import VersionNegotiationPacket

        packet = VersionNegotiationPacket(
            dcid=self.rng.randbytes(8),
            scid=self._scid_for(spoofed_ip),
            supported_versions=(self.policy.version.value, QUIC_V1.value),
        )
        return packet.serialize()
