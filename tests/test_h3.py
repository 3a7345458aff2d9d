"""Tests for the HTTP/3 layer: QPACK, frames, requests over 1-RTT."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.rng import SeededRng
from repro.quic import h3
from repro.quic.connection import ClientConnection, ConnectionError_, ServerConnection


# -- QPACK -----------------------------------------------------------------


def test_static_indexed_roundtrip():
    headers = [(":method", "GET"), (":scheme", "https"), (":status", "200")]
    assert h3.decode_field_section(h3.encode_field_section(headers)) == headers


def test_name_reference_roundtrip():
    headers = [(":path", "/index.html"), (":authority", "example.org")]
    assert h3.decode_field_section(h3.encode_field_section(headers)) == headers


def test_literal_name_roundtrip():
    headers = [("x-custom-header", "some value"), ("server", "repro")]
    assert h3.decode_field_section(h3.encode_field_section(headers)) == headers


def test_mixed_section_roundtrip():
    headers = [
        (":method", "POST"),
        (":path", "/submit"),
        ("content-length", "42"),
        ("x-trace", "abc123"),
    ]
    assert h3.decode_field_section(h3.encode_field_section(headers)) == headers


def test_large_values_use_continuation_bytes():
    value = "v" * 500  # forces multi-byte prefixed integers
    headers = [("x-long", value)]
    assert h3.decode_field_section(h3.encode_field_section(headers)) == headers


def test_decode_rejects_truncated_prefix():
    with pytest.raises(h3.H3ParseError):
        h3.decode_field_section(b"\x00")


def test_decode_rejects_dynamic_reference():
    # indexed field line with T=0 (dynamic table)
    with pytest.raises(h3.H3ParseError):
        h3.decode_field_section(b"\x00\x00\x80")


def test_decode_rejects_out_of_range_index():
    with pytest.raises(h3.H3ParseError):
        h3.decode_field_section(b"\x00\x00" + bytes([0xC0 | 0x3F, 0xFF, 0x01]))


@given(
    st.lists(
        st.tuples(
            st.sampled_from(
                [":method", ":path", "x-a", "content-length", "server", "etag"]
            ),
            st.text(
                alphabet=st.characters(min_codepoint=0x20, max_codepoint=0x7E),
                max_size=40,
            ),
        ),
        max_size=10,
    )
)
def test_field_section_roundtrip_property(headers):
    assert h3.decode_field_section(h3.encode_field_section(headers)) == headers


# -- frames ------------------------------------------------------------


def test_frame_roundtrip():
    frames = h3.parse_frames(
        h3.H3Frame(h3.FRAME_DATA, b"body").serialize()
        + h3.H3Frame(h3.FRAME_GOAWAY, b"\x00").serialize()
    )
    assert [(f.frame_type, f.payload) for f in frames] == [
        (h3.FRAME_DATA, b"body"),
        (h3.FRAME_GOAWAY, b"\x00"),
    ]


def test_frame_truncated_rejected():
    wire = h3.H3Frame(h3.FRAME_DATA, b"0123456789").serialize()
    with pytest.raises(h3.H3ParseError):
        h3.parse_frames(wire[:-4])


# -- requests / responses -----------------------------------------------------


def test_request_roundtrip():
    request = h3.H3Request(authority="cdn.example", path="/a/b", method="GET")
    parsed = h3.H3Request.parse(request.serialize())
    assert parsed.authority == "cdn.example"
    assert parsed.path == "/a/b"
    assert parsed.method == "GET"


def test_request_missing_headers_frame_rejected():
    with pytest.raises(h3.H3ParseError):
        h3.H3Request.parse(h3.H3Frame(h3.FRAME_DATA, b"x").serialize())


def test_response_roundtrip_with_body():
    response = h3.H3Response(status=200, body=b"<html></html>")
    parsed = h3.H3Response.parse(response.serialize())
    assert parsed.status == 200
    assert parsed.body == b"<html></html>"


def test_response_404_no_body():
    parsed = h3.H3Response.parse(h3.H3Response(status=404).serialize())
    assert parsed.status == 404
    assert parsed.body == b""


# -- over a real connection ----------------------------------------------------


def _connect(rng, server):
    client = ClientConnection(rng.child("client"), server_name="web.example")
    pending = [client.initial_datagram()]
    for _ in range(8):
        if not pending:
            break
        nxt = []
        for datagram in pending:
            for response in server.handle_datagram(datagram, 1, 2, now=0.0):
                for reply in client.handle_datagram(response.data):
                    nxt.append(reply.data)
        pending = nxt
    assert client.result().completed
    return client


def test_get_over_1rtt():
    rng = SeededRng(41)
    server = ServerConnection(rng.child("server"), pages={"/": b"front", "/x": b"xx"})
    client = _connect(rng, server)
    for path, status, body in (("/", 200, b"front"), ("/x", 200, b"xx"), ("/nope", 404, b"")):
        request = client.request_datagram(path)
        for response in server.handle_datagram(request, 1, 2, now=0.0):
            client.handle_datagram(response.data)
    assert [(r.status, r.body) for r in client.http_responses] == [
        (200, b"front"),
        (200, b"xx"),
        (404, b""),
    ]
    assert server.stats["requests_served"] == 3


def test_request_before_handshake_rejected():
    rng = SeededRng(42)
    client = ClientConnection(rng.child("c"))
    with pytest.raises(ConnectionError_):
        client.request_datagram("/")


def test_garbage_1rtt_to_server_ignored():
    rng = SeededRng(43)
    server = ServerConnection(rng.child("server"))
    client = _connect(rng, server)
    garbage = bytes([0x40]) + bytes(40)
    assert server.handle_datagram(garbage, 1, 2, now=0.0) == []
    assert server.stats["requests_served"] == 0
