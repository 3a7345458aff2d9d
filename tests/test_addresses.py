"""Tests for integer IPv4 addresses and CIDR prefixes."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net.addresses import IPv4Network, format_ipv4, parse_ipv4


def test_parse_format_known():
    assert parse_ipv4("0.0.0.0") == 0
    assert parse_ipv4("255.255.255.255") == 2**32 - 1
    assert parse_ipv4("10.0.0.1") == 0x0A000001
    assert format_ipv4(0x0A000001) == "10.0.0.1"


@pytest.mark.parametrize("bad", ["1.2.3", "1.2.3.4.5", "256.0.0.1", "a.b.c.d"])
def test_parse_rejects_malformed(bad):
    with pytest.raises(ValueError):
        parse_ipv4(bad)


def test_format_rejects_out_of_range():
    with pytest.raises(ValueError):
        format_ipv4(-1)
    with pytest.raises(ValueError):
        format_ipv4(2**32)


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_roundtrip(address):
    assert parse_ipv4(format_ipv4(address)) == address


def test_network_normalizes_host_bits():
    net = IPv4Network(parse_ipv4("10.1.2.3"), 8)
    assert net.network == parse_ipv4("10.0.0.0")


def test_slash9_telescope_size():
    # The UCSD telescope is a /9: 1/512 of IPv4.
    net = IPv4Network.from_cidr("44.0.0.0/9")
    assert net.size == 2**23
    assert net.size / 2**32 == 1 / 512


def test_membership():
    net = IPv4Network.from_cidr("192.168.0.0/16")
    assert parse_ipv4("192.168.255.255") in net
    assert parse_ipv4("192.169.0.0") not in net


def test_first_last():
    net = IPv4Network.from_cidr("10.0.0.0/30")
    assert net.first == parse_ipv4("10.0.0.0")
    assert net.last == parse_ipv4("10.0.0.3")


def test_address_at():
    net = IPv4Network.from_cidr("10.0.0.0/24")
    assert net.address_at(0) == parse_ipv4("10.0.0.0")
    assert net.address_at(255) == parse_ipv4("10.0.0.255")
    with pytest.raises(ValueError):
        net.address_at(256)


def test_cidr_requires_prefix():
    with pytest.raises(ValueError):
        IPv4Network.from_cidr("10.0.0.0")


@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=0, max_value=32),
)
def test_network_contains_its_range(address, prefix_len):
    net = IPv4Network(address, prefix_len)
    assert net.first in net
    assert net.last in net
    assert net.last - net.first == net.size - 1
