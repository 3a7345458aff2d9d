"""Tests for the QUIC payload dissector."""

import pytest

from repro.util.rng import SeededRng
from repro.util.batching import MEMO_ENTRIES
from repro.quic.connection import ClientConnection, ServerConnection
from repro.quic.header import PacketType, VersionNegotiationPacket
from repro.quic.retry import build_retry_packet
from repro.quic.versions import DRAFT_29, QUIC_V1
from repro.core.dissect import MIN_SHORT_HEADER_LEN, QuicDissector
from repro.telescope.scanners import ProbePool


@pytest.fixture
def dissector():
    return QuicDissector()


@pytest.fixture
def rng():
    return SeededRng(777)


def test_client_initial_dissects_with_client_hello(dissector, rng):
    client = ClientConnection(rng.child("c"), server_name="target.example")
    dissection = dissector.dissect(client.initial_datagram())
    assert dissection.valid
    assert [p.packet_type for p in dissection.packets] == [PacketType.INITIAL]
    assert dissection.packets[0].decrypted
    assert dissection.packets[0].has_plain_client_hello
    assert dissection.packets[0].client_hello_sni == "target.example"
    assert dissection.packets[0].version_name == "v1"


def test_probe_pool_dissects(dissector, rng):
    pool = ProbePool(rng, size=3)
    for _ in range(3):
        dissection = dissector.dissect(pool.next_probe())
        assert dissection.valid
        assert dissection.packets[0].has_plain_client_hello


def test_server_flight_dissects_without_client_hello(dissector, rng):
    client = ClientConnection(rng.child("c"))
    server = ServerConnection(rng.child("s"))
    responses = server.handle_datagram(client.initial_datagram(), 1, 2, now=0.0)
    first = dissector.dissect(responses[0].data)
    assert first.valid
    assert [p.packet_type for p in first.packets] == [
        PacketType.INITIAL,
        PacketType.HANDSHAKE,
    ]
    # Backscatter initials are keyed on the attacker's DCID, which the
    # telescope does not know: no plaintext ClientHello visible.
    assert not any(p.has_plain_client_hello for p in first.packets)
    assert first.all_dcids_empty


def test_draft29_initial_dissects(dissector, rng):
    client = ClientConnection(rng.child("c"), version=DRAFT_29, supported_versions=(DRAFT_29,))
    dissection = dissector.dissect(client.initial_datagram())
    assert dissection.valid
    assert dissection.packets[0].version_name == "draft-29"
    assert dissection.packets[0].has_plain_client_hello


def test_retry_packet_detected(dissector):
    wire = build_retry_packet(
        version=QUIC_V1.value, dcid=b"\x01" * 8, scid=b"\x02" * 8, odcid=b"\x03" * 8, token=b"tok"
    )
    dissection = dissector.dissect(wire)
    assert dissection.valid
    assert dissection.has_retry
    assert dissection.packets[0].token_length == 3
    assert dissection.packets[0].packet_type is PacketType.RETRY


def test_version_negotiation_detected(dissector):
    wire = VersionNegotiationPacket(
        dcid=b"\x01" * 8, scid=b"\x02" * 8, supported_versions=(QUIC_V1.value,)
    ).serialize()
    dissection = dissector.dissect(wire)
    assert dissection.valid
    assert [p.packet_type for p in dissection.packets] == [
        PacketType.VERSION_NEGOTIATION
    ]


def test_short_header_needs_minimum_length(dissector):
    toolong = bytes([0x40]) + b"\x00" * (MIN_SHORT_HEADER_LEN - 1)
    assert dissector.dissect(toolong).valid
    tooshort = bytes([0x40]) + b"\x00" * 5
    assert not dissector.dissect(tooshort).valid


def test_garbage_rejected(dissector, rng):
    assert not dissector.dissect(b"").valid
    assert not dissector.dissect(b"\x16\xfe\xfd" + rng.randbytes(40)).valid
    assert not dissector.dissect(b"\x00\x01\x02\x03").valid


def test_truncated_initial_rejected(dissector, rng):
    client = ClientConnection(rng.child("c"))
    wire = client.initial_datagram()
    assert not dissector.dissect(wire[:100]).valid


def test_unknown_version_header_only(dissector):
    """Unknown versions dissect at the header level (like Wireshark
    with an unsupported draft) — no decryption attempted."""
    from repro.quic.header import LongHeader
    from repro.quic.packet import PlainPacket, protect_packet
    from repro.quic.crypto import keys_from_secret
    from repro.quic.frames import CryptoFrame

    keys = keys_from_secret(b"\x01" * 32)
    header = LongHeader(
        packet_type=PacketType.INITIAL,
        version=0x1A2B3C4D,
        dcid=b"\x0a" * 8,
        scid=b"\x0b" * 8,
    )
    wire = protect_packet(PlainPacket(header, 0, [CryptoFrame(0, b"x" * 40)]), keys)
    dissection = dissector.dissect(wire)
    assert dissection.valid
    assert dissection.packets[0].version == 0x1A2B3C4D
    assert dissection.packets[0].version_name is None
    assert not dissection.packets[0].decrypted


def test_corrupt_ciphertext_still_header_dissects(dissector, rng):
    """A bit-flipped Initial fails decryption but keeps header fields —
    classification stays QUIC (the header is valid wire format)."""
    client = ClientConnection(rng.child("c"))
    wire = bytearray(client.initial_datagram())
    wire[700] ^= 0xFF
    dissection = dissector.dissect(bytes(wire))
    assert dissection.valid
    assert not dissection.packets[0].decrypted


def test_cache_returns_equal_results(rng):
    dissector = QuicDissector()
    probe = ClientConnection(rng.child("c")).initial_datagram()
    first = dissector.dissect(probe)
    second = dissector.dissect(probe)
    assert first is second  # memoized
    assert dissector.cache_misses == 1
    assert dissector.cache_hits == 1


def test_cache_is_an_lru_of_memo_entries(rng):
    """A payload touched between cold inserts stays; one left untouched
    falls out, misses again and dissects to an equal result."""
    dissector = QuicDissector()
    hot = b"\x00hot"  # invalid payloads still memoize their Dissection
    cold = ClientConnection(rng.child("c")).initial_datagram()
    dissector.dissect(hot)
    first = dissector.dissect(cold)
    for i in range(MEMO_ENTRIES):
        dissector.dissect(b"\x00cold%d" % i)
        dissector.dissect(hot)
        assert dissector.dissect.cache_info().currsize <= MEMO_ENTRIES
    assert (dissector.cache_hits, dissector.cache_misses) == (MEMO_ENTRIES, MEMO_ENTRIES + 2)
    again = dissector.dissect(cold)  # evicted: dissected afresh
    assert dissector.cache_misses == MEMO_ENTRIES + 3
    assert again == first and again is not first


def test_scids_property(dissector, rng):
    client = ClientConnection(rng.child("c"))
    server = ServerConnection(rng.child("s"))
    responses = server.handle_datagram(client.initial_datagram(), 1, 2, now=0.0)
    dissection = dissector.dissect(responses[0].data)
    assert len(set(dissection.scids)) == 1


def test_gquic_probe_recognized(dissector, rng):
    from repro.quic.header import PacketType
    from repro.telescope.scanners import gquic_probe

    probe = gquic_probe(rng)
    dissection = dissector.dissect(probe)
    assert dissection.valid
    assert dissection.packets[0].packet_type is PacketType.GQUIC
    assert dissection.packets[0].version_name == "gQUIC-Q043"
    assert dissection.packets[0].has_plain_client_hello


def test_gquic_unknown_version_tag_named(dissector, rng):
    from repro.telescope.scanners import gquic_probe

    dissection = dissector.dissect(gquic_probe(rng, version_tag=b"Q050"))
    assert dissection.valid
    assert dissection.packets[0].version_name == "gQUIC-Q050"


def test_gquic_requires_version_and_cid_flags(dissector, rng):
    from repro.telescope.scanners import gquic_probe

    probe = bytearray(gquic_probe(rng))
    probe[0] = 0x08  # CID but no version flag
    assert not dissector.dissect(bytes(probe)).valid
    probe[0] = 0x01  # version but no CID flag
    assert not dissector.dissect(bytes(probe)).valid


def test_gquic_bad_version_tag_rejected(dissector, rng):
    probe = bytes([0x09]) + rng.randbytes(8) + b"ZZZZ" + bytes(20)
    assert not dissector.dissect(probe).valid


# -- shared-cache immutability ------------------------------------------


def test_dissect_cache_returns_shared_instance(dissector, rng):
    client = ClientConnection(rng.child("memo"), server_name="memo.example")
    payload = client.initial_datagram()
    first = dissector.dissect(payload)
    second = dissector.dissect(payload)
    # the memo hands out the same object, which is why it must be frozen
    assert first is second
    assert dissector.cache_hits >= 1


def test_dissection_results_are_frozen(dissector, rng):
    import dataclasses

    client = ClientConnection(rng.child("frozen"), server_name="frozen.example")
    dissection = dissector.dissect(client.initial_datagram())
    with pytest.raises(dataclasses.FrozenInstanceError):
        dissection.valid = False
    summary = dissection.packets[0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        summary.decrypted = False
    with pytest.raises(dataclasses.FrozenInstanceError):
        summary.dcid = b"mutated"
    # results carry tuples, not lists: no in-place append possible
    assert isinstance(dissection.packets, tuple)


def test_non_quic_precheck_matches_parser_error(dissector):
    # First byte with neither 0x80 nor 0x40: the pre-check shortcut must
    # report the exact error the header parser raises on the slow path.
    dissection = dissector.dissect(b"\x00" + b"A" * 40)
    assert not dissection.valid
    assert dissection.error == "short header without fixed bit"
