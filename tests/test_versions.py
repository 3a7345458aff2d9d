"""Tests for the QUIC version registry."""

import pytest

from repro.quic.versions import (
    DRAFT_27,
    DRAFT_29,
    GQUIC_Q043,
    KNOWN_VERSIONS,
    MVFST_27,
    QUIC_V1,
    VERSION_NEGOTIATION,
    is_greased,
    version_by_value,
)


def test_v1_value_and_salt():
    assert QUIC_V1.value == 0x00000001
    # RFC 9001 §5.2 initial salt for v1
    assert QUIC_V1.initial_salt.hex() == "38762cf7f55934b34d179ae6a4c80cadccbb7f0a"


def test_draft_values():
    assert DRAFT_29.value == 0xFF00001D
    assert DRAFT_27.value == 0xFF00001B
    assert DRAFT_29.initial_salt != QUIC_V1.initial_salt


def test_mvfst_uses_draft27_wire_format():
    assert MVFST_27.value == 0xFACEB002
    assert MVFST_27.initial_salt == DRAFT_27.initial_salt
    assert MVFST_27.name == "mvfst-draft-27"


def test_gquic_not_ietf_layout():
    assert not GQUIC_Q043.ietf_layout
    assert GQUIC_Q043.value == int.from_bytes(b"Q043", "big")
    assert all(v.ietf_layout for v in (QUIC_V1, DRAFT_29, DRAFT_27, MVFST_27))


def test_lookup_by_value():
    assert version_by_value(0x00000001) is QUIC_V1
    assert version_by_value(0xFACEB002) is MVFST_27
    assert version_by_value(0xDEADBEEF) is None
    assert version_by_value(VERSION_NEGOTIATION) is None


@pytest.mark.parametrize("value", [0x0A0A0A0A, 0x1A2A3A4A, 0xFAFAFAFA])
def test_greased_values(value):
    assert is_greased(value)


@pytest.mark.parametrize("value", [0x00000001, 0xFF00001D, 0x0A0A0A0B])
def test_non_greased_values(value):
    assert not is_greased(value)


def test_registry_has_no_duplicate_values():
    values = [v.value for v in KNOWN_VERSIONS]
    assert len(values) == len(set(values))


def test_str_rendering():
    assert "v1" in str(QUIC_V1)
    assert "0x00000001" in str(QUIC_V1)
