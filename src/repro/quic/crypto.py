"""QUIC packet-protection cryptography.

Two layers live here:

1. **HKDF (real).**  RFC 5869 extract/expand and the TLS 1.3
   ``HKDF-Expand-Label`` construction from RFC 8446 §7.1 are implemented
   faithfully on stdlib ``hmac``/``hashlib``.  Initial secrets are
   derived exactly as RFC 9001 §5.2 prescribes: from the per-version
   initial salt and the client's Destination Connection ID, split into
   ``client in`` / ``server in`` secrets and then key/IV/HP material.

2. **AEAD (documented substitution).**  RFC 9001 uses AES-128-GCM for
   Initial packets.  No AES implementation is available offline, so we
   substitute a deterministic stream cipher + MAC with *identical
   interface and ciphertext expansion*: keystream blocks are
   ``SHA-256(key || nonce || counter)`` and the 16-byte tag is
   ``HMAC-SHA-256(key, nonce || aad || ciphertext)[:16]``.  Header
   protection similarly derives its 5-byte mask from
   ``SHA-256(hp_key || sample)`` instead of AES-ECB.  Every property the
   telescope analysis relies on is preserved: payloads are
   indistinguishable from random to a passive observer without the keys,
   ciphertext is exactly 16 bytes longer than plaintext, tampering is
   detected, and anyone who knows the version salt and the wire DCID can
   decrypt a client Initial — which is precisely how Wireshark dissects
   Initials.  See DESIGN.md §2.

Every memo is bounded by :data:`~repro.util.batching.MEMO_ENTRIES`:
sized to what hits while a flood is live, not to what a long window
derives (keys are nearly all first sights).  The generation memos
elsewhere (scanner probes, wire templates) share that bound, and the
metric family of the keystream, probe and flight memos is declared
here.  The fast paths are byte-identical to the textbook loops
``tests/test_quic_crypto.py`` writes out beside them.
"""

from __future__ import annotations

import functools
import hashlib
import hmac
from dataclasses import dataclass

from repro import obs
from repro.quic.versions import QuicVersion
from repro.util.batching import MEMO_ENTRIES

HASH_LEN = 32  # SHA-256
AEAD_TAG_LEN = 16
AEAD_KEY_LEN = 16
AEAD_IV_LEN = 12
HP_SAMPLE_LEN = 16

# The generation memos' metric family, one label per cache: the
# ``keystream`` memo below, the scanners' ``initial`` probe datagrams
# and the responders' compiled ``flight``s.  Pull-style: one collector
# (``telescope/scanners.py``) reads the memos' own tallies at export
# time, so no seal/open or stamping path touches the metrics layer.
M_CACHE_HITS = obs.counter(
    "repro_template_cache_hits_total",
    "wire-template / keystream cache hits, per cache",
    labels=("cache",),
)
M_CACHE_MISSES = obs.counter(
    "repro_template_cache_misses_total",
    "wire-template / keystream cache misses (fresh builds), per cache",
    labels=("cache",),
)
M_CACHE_SIZE = obs.gauge(
    "repro_template_cache_size",
    "entries currently held, per cache",
    labels=("cache",),
)


class DecryptError(ValueError):
    """Raised when AEAD authentication fails."""


# --------------------------------------------------------------------------
# HKDF (RFC 5869) and HKDF-Expand-Label (RFC 8446)
# --------------------------------------------------------------------------


def hkdf_extract(salt: bytes, ikm: bytes) -> bytes:
    """HKDF-Extract with SHA-256."""
    return hmac.digest(salt or b"\x00" * HASH_LEN, ikm, "sha256")


def hkdf_expand(prk: bytes, info: bytes, length: int) -> bytes:
    """HKDF-Expand with SHA-256; up to one hash length (every QUIC key,
    IV and secret) that is the first block, ``HMAC(prk, info ‖ 0x01)``."""
    if 0 < length <= HASH_LEN:
        return hmac.digest(prk, info + b"\x01", "sha256")[:length]
    if length > 255 * HASH_LEN:
        raise ValueError("HKDF-Expand length too large")
    out = previous = b""
    counter = 1
    while len(out) < length:
        previous = hmac.digest(prk, previous + info + bytes([counter]), "sha256")
        out += previous
        counter += 1
    return out[:length]


def hkdf_expand_label(secret: bytes, label: str, context: bytes, length: int) -> bytes:
    """TLS 1.3 HKDF-Expand-Label ("tls13 " prefix per RFC 8446 §7.1)."""
    return hkdf_expand(secret, _label_info(label, context, length), length)


@functools.lru_cache(maxsize=MEMO_ENTRIES)
def _label_info(label: str, context: bytes, length: int) -> bytes:
    """The serialized ``HkdfLabel`` of RFC 8446 §7.1 (a handful recur)."""
    full_label = b"tls13 " + label.encode("ascii")
    return (
        length.to_bytes(2, "big")
        + bytes([len(full_label)])
        + full_label
        + bytes([len(context)])
        + context
    )


# --------------------------------------------------------------------------
# Initial secrets (RFC 9001 §5.2)
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class PacketKeys:
    """Key material protecting one direction of one encryption level."""

    key: bytes
    iv: bytes
    hp: bytes


@functools.lru_cache(maxsize=MEMO_ENTRIES)
def derive_initial_keys(version: QuicVersion, client_dcid: bytes) -> tuple[PacketKeys, PacketKeys]:
    """Derive ``(client_keys, server_keys)`` for the Initial level.

    Anyone observing a client Initial can recompute these — the inputs
    are the (public) version salt and the DCID on the wire.  This is
    what makes client Initials dissectable and is also why the Initial
    level offers no confidentiality against on-path observers.
    """
    initial_secret = hkdf_extract(version.initial_salt, client_dcid)
    client_secret = hkdf_expand_label(initial_secret, "client in", b"", HASH_LEN)
    server_secret = hkdf_expand_label(initial_secret, "server in", b"", HASH_LEN)
    return keys_from_secret(client_secret), keys_from_secret(server_secret)


def keys_from_secret(secret: bytes) -> PacketKeys:
    """Expand a traffic secret into AEAD key, IV and header-protection key."""
    return PacketKeys(
        key=hkdf_expand_label(secret, "quic key", b"", AEAD_KEY_LEN),
        iv=hkdf_expand_label(secret, "quic iv", b"", AEAD_IV_LEN),
        hp=hkdf_expand_label(secret, "quic hp", b"", AEAD_KEY_LEN),
    )


@functools.lru_cache(maxsize=MEMO_ENTRIES)
def derive_handshake_secret(version: QuicVersion, client_dcid: bytes, label: str) -> PacketKeys:
    """Handshake-level keys for the simulation.

    Real QUIC derives these from the TLS key schedule after the key
    exchange; a telescope can never compute them.  The simulation only
    needs *some* deterministic per-connection key, so we hash the
    connection inputs.  The analysis code never calls this — it is used
    by endpoints to produce realistically opaque Handshake payloads.
    """
    seed = hkdf_extract(version.initial_salt + b"hs", client_dcid)
    return keys_from_secret(hkdf_expand_label(seed, label, b"", HASH_LEN))


# --------------------------------------------------------------------------
# AEAD substitution (see module docstring)
# --------------------------------------------------------------------------


_counter = functools.partial(int.to_bytes, length=4, byteorder="big")
#: big-endian block counters for keystreams up to 64 KiB (a datagram needs 47)
_COUNTERS = tuple(map(_counter, range(2048)))


def _compute_keystream(key: bytes, nonce: bytes, length: int) -> bytes:
    """``SHA-256(key ‖ nonce ‖ counter)`` blocks, joined and truncated."""
    prefix, sha256 = key + nonce, hashlib.sha256
    blocks = -(-length // HASH_LEN)
    counters = _COUNTERS[:blocks] if blocks <= 2048 else map(_counter, range(blocks))
    return b"".join([sha256(prefix + counter).digest() for counter in counters])[:length]


#: keystream for ``(key, nonce, length)``: a pure function, memoized.  A
#: responder's flight recurs when it compiles a DCID's flight on its
#: second sight, while the flood is live (``telescope/backscatter.py``),
#: so :data:`MEMO_ENTRIES` keep it.
_keystream = functools.lru_cache(maxsize=MEMO_ENTRIES)(_compute_keystream)


@functools.lru_cache(maxsize=MEMO_ENTRIES)
def _hmac_base(key: bytes) -> "hmac.HMAC":
    """A keyed HMAC-SHA-256 object, processed up to (but not including)
    the message.  ``.copy()`` of the base skips re-hashing the key blocks
    on every seal/open; the digest is identical to a fresh ``hmac.new``.
    """
    return hmac.new(key, digestmod=hashlib.sha256)


def _hmac_tag(key: bytes, message: bytes) -> bytes:
    mac = _hmac_base(key).copy()
    mac.update(message)
    return mac.digest()[:AEAD_TAG_LEN]


def _xor_bytes(a: bytes, b: bytes) -> bytes:
    """Constant-width XOR via int arithmetic (fast path for payloads)."""
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(
        len(a), "big"
    )


def _nonce(iv: bytes, packet_number: int) -> bytes:
    """The IV XOR the left-padded packet number (RFC 9001 §5.3)."""
    return (int.from_bytes(iv, "big") ^ packet_number).to_bytes(AEAD_IV_LEN, "big")


def aead_seal(keys: PacketKeys, packet_number: int, aad: bytes, plaintext: bytes) -> bytes:
    """Encrypt and authenticate; output is ``len(plaintext) + 16`` bytes."""
    nonce = _nonce(keys.iv, packet_number)
    stream = _keystream(keys.key, nonce, len(plaintext))
    ciphertext = _xor_bytes(plaintext, stream)
    return ciphertext + _hmac_tag(keys.key, nonce + aad + ciphertext)


def aead_open(keys: PacketKeys, packet_number: int, aad: bytes, sealed: bytes) -> bytes:
    """Authenticate and decrypt; raises :class:`DecryptError` on mismatch."""
    if len(sealed) < AEAD_TAG_LEN:
        raise DecryptError("ciphertext shorter than tag")
    ciphertext, tag = sealed[:-AEAD_TAG_LEN], sealed[-AEAD_TAG_LEN:]
    nonce = _nonce(keys.iv, packet_number)
    expected = _hmac_tag(keys.key, nonce + aad + ciphertext)
    if not hmac.compare_digest(tag, expected):
        raise DecryptError("AEAD tag mismatch")
    stream = _keystream(keys.key, nonce, len(ciphertext))
    return _xor_bytes(ciphertext, stream)


def header_protection_mask(hp_key: bytes, sample: bytes) -> bytes:
    """5-byte header-protection mask from a 16-byte ciphertext sample."""
    if len(sample) < HP_SAMPLE_LEN:
        raise ValueError(
            f"header protection sample too short ({len(sample)} bytes)"
        )
    return hashlib.sha256(hp_key + sample[:HP_SAMPLE_LEN]).digest()[:5]


# --------------------------------------------------------------------------
# Packet number encode/decode (RFC 9000 §17.1, Appendix A)
# --------------------------------------------------------------------------


def encode_packet_number(full_pn: int, largest_acked: int = -1) -> bytes:
    """Encode a packet number in the minimal number of bytes (1-4)."""
    num_unacked = full_pn - largest_acked
    min_bits = max(num_unacked.bit_length() + 1, 1)
    length = max(1, (min_bits + 7) // 8)
    if length > 4:
        raise ValueError(f"packet number {full_pn} needs more than 4 bytes")
    return (full_pn & ((1 << (8 * length)) - 1)).to_bytes(length, "big")


def decode_packet_number(truncated: int, pn_nbits: int, largest_pn: int = -1) -> int:
    """Recover the full packet number per RFC 9000 Appendix A.3."""
    expected = largest_pn + 1
    pn_win = 1 << pn_nbits
    pn_hwin = pn_win // 2
    pn_mask = pn_win - 1
    candidate = (expected & ~pn_mask) | truncated
    if candidate <= expected - pn_hwin and candidate < (1 << 62) - pn_win:
        return candidate + pn_win
    if candidate > expected + pn_hwin and candidate >= pn_win:
        return candidate - pn_win
    return candidate
