"""Tests for HKDF, initial secrets, the AEAD substitution and PN coding."""

import functools
import hashlib
import hmac
import struct
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.quic import crypto
from repro.quic.crypto import (
    DecryptError,
    PacketKeys,
    aead_open,
    aead_seal,
    decode_packet_number,
    derive_initial_keys,
    encode_packet_number,
    header_protection_mask,
    hkdf_expand,
    hkdf_expand_label,
    hkdf_extract,
    keys_from_secret,
)
from repro.quic.versions import DRAFT_29, QUIC_V1
from repro.telescope import Scenario, ScenarioConfig, scanners
from repro.util.timeutil import HOUR


def test_hkdf_rfc5869_test_case_1():
    ikm = bytes([0x0B] * 22)
    salt = bytes(range(13))
    info = bytes(range(0xF0, 0xFA))
    prk = hkdf_extract(salt, ikm)
    assert prk.hex() == (
        "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5"
    )
    okm = hkdf_expand(prk, info, 42)
    assert okm.hex() == (
        "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
        "34007208d5b887185865"
    )


def test_hkdf_rfc5869_test_case_3_empty_salt_and_info():
    ikm = bytes([0x0B] * 22)
    prk = hkdf_extract(b"", ikm)
    okm = hkdf_expand(prk, b"", 42)
    assert okm.hex() == (
        "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d"
        "9d201395faa4b61a96c8"
    )


def test_rfc9001_appendix_a_client_initial_keys():
    """The published RFC 9001 A.1 vectors — proof the key schedule is real."""
    client, server = derive_initial_keys(QUIC_V1, bytes.fromhex("8394c8f03e515708"))
    assert client.key.hex() == "1f369613dd76d5467730efcbe3b1a22d"
    assert client.iv.hex() == "fa044b2f42a3fd3b46fb255c"
    assert client.hp.hex() == "9f50449e04a0e810283a1e9933adedd2"
    assert server.key.hex() == "cf3a5331653c364c88f0f379b6067e37"


def test_initial_keys_depend_on_version_salt():
    dcid = bytes.fromhex("8394c8f03e515708")
    v1_client, _ = derive_initial_keys(QUIC_V1, dcid)
    d29_client, _ = derive_initial_keys(DRAFT_29, dcid)
    assert v1_client.key != d29_client.key


def test_initial_keys_depend_on_dcid():
    a, _ = derive_initial_keys(QUIC_V1, b"\x01" * 8)
    b, _ = derive_initial_keys(QUIC_V1, b"\x02" * 8)
    assert a.key != b.key


def test_expand_label_lengths():
    secret = b"\xab" * 32
    assert len(hkdf_expand_label(secret, "quic key", b"", 16)) == 16
    assert len(hkdf_expand_label(secret, "quic iv", b"", 12)) == 12


def test_hkdf_expand_rejects_oversize():
    with pytest.raises(ValueError):
        hkdf_expand(b"\x00" * 32, b"", 256 * 32)


KEYS = keys_from_secret(b"\x11" * 32)


def test_aead_roundtrip():
    sealed = aead_seal(KEYS, 7, b"aad", b"plaintext")
    assert len(sealed) == len(b"plaintext") + crypto.AEAD_TAG_LEN
    assert aead_open(KEYS, 7, b"aad", sealed) == b"plaintext"


def test_aead_detects_ciphertext_tampering():
    sealed = bytearray(aead_seal(KEYS, 7, b"aad", b"plaintext"))
    sealed[0] ^= 0x01
    with pytest.raises(DecryptError):
        aead_open(KEYS, 7, b"aad", bytes(sealed))


def test_aead_detects_aad_tampering():
    sealed = aead_seal(KEYS, 7, b"aad", b"plaintext")
    with pytest.raises(DecryptError):
        aead_open(KEYS, 7, b"AAD", sealed)


def test_aead_detects_wrong_packet_number():
    sealed = aead_seal(KEYS, 7, b"aad", b"plaintext")
    with pytest.raises(DecryptError):
        aead_open(KEYS, 8, b"aad", sealed)


def test_aead_rejects_short_ciphertext():
    with pytest.raises(DecryptError):
        aead_open(KEYS, 0, b"", b"\x00" * 8)


def test_aead_empty_plaintext():
    sealed = aead_seal(KEYS, 0, b"hdr", b"")
    assert len(sealed) == crypto.AEAD_TAG_LEN
    assert aead_open(KEYS, 0, b"hdr", sealed) == b""


@given(st.binary(max_size=256), st.integers(min_value=0, max_value=2**30))
def test_aead_roundtrip_property(plaintext, pn):
    sealed = aead_seal(KEYS, pn, b"h", plaintext)
    assert aead_open(KEYS, pn, b"h", sealed) == plaintext


def test_hp_mask_is_deterministic_and_5_bytes():
    mask = header_protection_mask(b"\x01" * 16, b"\x02" * 16)
    assert len(mask) == 5
    assert mask == header_protection_mask(b"\x01" * 16, b"\x02" * 16)
    assert mask != header_protection_mask(b"\x01" * 16, b"\x03" * 16)


def test_hp_mask_rejects_short_sample():
    with pytest.raises(ValueError):
        header_protection_mask(b"\x01" * 16, b"\x02" * 8)


def test_encode_packet_number_widths():
    assert len(encode_packet_number(0)) == 1
    assert len(encode_packet_number(0xAC5C02, 0xABE8B3)) >= 2


def test_decode_packet_number_rfc_example():
    # RFC 9000 A.3: largest 0xa82f30ea, truncated 0x9b32 in 16 bits.
    assert decode_packet_number(0x9B32, 16, 0xA82F30EA) == 0xA82F9B32


@given(st.integers(min_value=0, max_value=2**40))
def test_pn_roundtrip_with_recent_ack(full_pn):
    largest_acked = max(-1, full_pn - 5)
    wire = encode_packet_number(full_pn, largest_acked)
    decoded = decode_packet_number(
        int.from_bytes(wire, "big"), len(wire) * 8, full_pn - 1
    )
    assert decoded == full_pn


# -- fast paths against the textbook constructions --------------------------


def _rfc5869_expand(prk, info, length):
    """RFC 5869 §2.3 block by block: T(i) = HMAC(PRK, T(i-1) | info | i)."""
    okm = block = b""
    for i in range(1, -(-length // 32) + 1):
        block = hmac.new(prk, block + info + bytes([i]), hashlib.sha256).digest()
        okm += block
    return okm[:length]


def test_hkdf_expand_is_the_rfc5869_block_loop():
    prk, info = bytes(range(32)), b"info bytes"
    for length in [*range(97), 255 * 32]:
        assert hkdf_expand(prk, info, length) == _rfc5869_expand(prk, info, length), length


def test_hkdf_expand_label_is_the_rfc8446_hkdf_label():
    secret = bytes(range(100, 132))
    cases = [("quic key", b"", 16), ("quic iv", b"", 12), ("client in", b"", 32), ("c e traffic", b"\x5a" * 32, 48)]
    for label, context, length in cases:
        full_label = b"tls13 " + label.encode("ascii")
        # struct { uint16 length; opaque label<7..255>; opaque context<0..255>; }
        info = (
            struct.pack("!HB", length, len(full_label))
            + full_label
            + struct.pack("!B", len(context))
            + context
        )
        assert hkdf_expand_label(secret, label, context, length) == _rfc5869_expand(secret, info, length)


@pytest.mark.parametrize("length", [0, 1, 31, 32, 33, 1200, 65_536, 65_537])
def test_keystream_is_the_per_block_loop(length):
    key, nonce = b"\x07" * 16, b"\x09" * 12
    out, counter = b"", 0
    while len(out) < length:
        out += hashlib.sha256(key + nonce + counter.to_bytes(4, "big")).digest()
        counter += 1
    assert crypto._compute_keystream(key, nonce, length) == out[:length]


@pytest.mark.parametrize("packet_number", [0, 1, 2**32, 2**62 - 1])
def test_nonce_is_the_bytewise_xor(packet_number):
    iv = bytes.fromhex("fa044b2f42a3fd3b46fb255c")
    padded = packet_number.to_bytes(crypto.AEAD_IV_LEN, "big")
    assert crypto._nonce(iv, packet_number) == bytes(a ^ b for a, b in zip(iv, padded))


# -- the memos are sized to what hits ---------------------------------------

MEMOS = ("derive_initial_keys", "derive_handshake_secret", "_keystream", "_hmac_base", "_label_info")


def _drain_with_fresh_memos(maxsize):
    """Drain a 6 h scenario's lane batches with fresh memos of ``maxsize``
    bound wherever the module's own are; returns them, tallies and all."""
    fresh = {}
    with pytest.MonkeyPatch.context() as patch:
        for name in MEMOS:
            memo = getattr(crypto, name)
            fresh[name] = functools.lru_cache(maxsize=maxsize)(memo.__wrapped__)
            for module_name, module in list(sys.modules.items()):
                if module_name.startswith("repro") and getattr(module, name, None) is memo:
                    patch.setattr(module, name, fresh[name])
        # probe datagrams replayed from an earlier run would skip their sealing
        probe = scanners._probe_datagram.__wrapped__
        patch.setattr(scanners, "_probe_datagram", functools.lru_cache(maxsize=maxsize)(probe))
        scenario = Scenario(ScenarioConfig(duration=6 * HOUR, research_sample=1 / 2048))
        for _ in scenario.lane_batches():
            pass
    return fresh


def test_bounded_memos_keep_the_keystream_hits():
    for name in MEMOS:
        assert getattr(crypto, name).cache_parameters()["maxsize"] == crypto.MEMO_ENTRIES
    bounded = _drain_with_fresh_memos(crypto.MEMO_ENTRIES)
    unbounded = _drain_with_fresh_memos(None)
    for name, memo in bounded.items():
        assert memo.cache_info().currsize <= crypto.MEMO_ENTRIES, name
    # the bound binds: a window derives far more than the memos keep ...
    assert unbounded["_keystream"].cache_info().currsize > 4 * crypto.MEMO_ENTRIES
    # ... but the hits come from live floods, and those stay
    kept, possible = (memo["_keystream"].cache_info().hits for memo in (bounded, unbounded))
    assert possible > 1000
    assert kept >= 0.99 * possible
