"""Minimal HTTP/3 (RFC 9114) framing with static-table QPACK (RFC 9204).

QUIC's deployment driver is HTTP/3 — the scans the paper observes
advertise ``h3`` ALPN, and the NGINX testbed terminates HTTP/3.  This
module implements the slice of the protocol the reproduction exercises:

- HTTP/3 frames (DATA, HEADERS, GOAWAY) with varint framing;
- QPACK field-line encoding restricted to the *static* table plus
  literal field lines (no dynamic table, no Huffman) — which is exactly
  what minimal clients such as scan probes emit;
- request/response helpers used by the active prober (Section 6's
  validation connects to attacked servers "with a QUIC client" and
  fetches a page) and by the handshake endpoints' post-handshake
  request path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.util.varint import VarintError, decode_varint, encode_varint

FRAME_DATA = 0x0
FRAME_HEADERS = 0x1
FRAME_GOAWAY = 0x7

#: The rows of the QPACK static table (RFC 9204 Appendix A) used here.
STATIC_TABLE: tuple = (
    (":authority", ""),          # 0
    (":path", "/"),              # 1
    ("age", "0"),                # 2
    ("content-disposition", ""), # 3
    ("content-length", "0"),     # 4
    ("cookie", ""),              # 5
    ("date", ""),                # 6
    ("etag", ""),                # 7
    ("if-modified-since", ""),   # 8
    ("if-none-match", ""),       # 9
    ("last-modified", ""),       # 10
    ("link", ""),                # 11
    ("location", ""),            # 12
    ("referer", ""),             # 13
    ("set-cookie", ""),          # 14
    (":method", "CONNECT"),      # 15
    (":method", "DELETE"),       # 16
    (":method", "GET"),          # 17
    (":method", "HEAD"),         # 18
    (":method", "OPTIONS"),      # 19
    (":method", "POST"),         # 20
    (":method", "PUT"),          # 21
    (":scheme", "http"),         # 22
    (":scheme", "https"),        # 23
    (":status", "103"),          # 24
    (":status", "200"),          # 25
    (":status", "304"),          # 26
    (":status", "404"),          # 27
    (":status", "503"),          # 28
)

_STATIC_EXACT = {pair: i for i, pair in enumerate(STATIC_TABLE)}
_STATIC_NAME = {}
for _i, (_name, _value) in enumerate(STATIC_TABLE):
    _STATIC_NAME.setdefault(_name, _i)


class H3ParseError(ValueError):
    """Raised for malformed HTTP/3 frames or QPACK field sections."""


# --------------------------------------------------------------------------
# QPACK (static table + literals, no Huffman)
# --------------------------------------------------------------------------


def _prefixed_int(value: int, prefix_bits: int, first_byte_flags: int) -> bytes:
    """QPACK/HPACK prefixed integer encoding (RFC 7541 §5.1)."""
    limit = (1 << prefix_bits) - 1
    if value < limit:
        return bytes([first_byte_flags | value])
    out = bytearray([first_byte_flags | limit])
    value -= limit
    while value >= 128:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)
    return bytes(out)


def _decode_prefixed_int(data: bytes, offset: int, prefix_bits: int) -> tuple:
    limit = (1 << prefix_bits) - 1
    if offset >= len(data):
        raise H3ParseError("prefixed integer truncated")
    value = data[offset] & limit
    offset += 1
    if value < limit:
        return value, offset
    shift = 0
    while True:
        if offset >= len(data):
            raise H3ParseError("prefixed integer continuation truncated")
        byte = data[offset]
        offset += 1
        value += (byte & 0x7F) << shift
        shift += 7
        if not byte & 0x80:
            return value, offset


def encode_field_section(headers: list) -> bytes:
    """QPACK-encode ``[(name, value), ...]`` using the static table."""
    # Required Insert Count = 0, Delta Base = 0: static-only encoding.
    out = bytearray(b"\x00\x00")
    for name, value in headers:
        exact = _STATIC_EXACT.get((name, value))
        if exact is not None:
            # Indexed Field Line, static: 1 1 <index:6>
            out += _prefixed_int(exact, 6, 0xC0)
            continue
        name_index = _STATIC_NAME.get(name)
        if name_index is not None:
            # Literal With Name Reference, static: 0 1 N=0 1 <index:4>
            out += _prefixed_int(name_index, 4, 0x50)
        else:
            # Literal With Literal Name: 0 0 1 N=0 H=0 <namelen:3>
            raw = name.encode("ascii")
            out += _prefixed_int(len(raw), 3, 0x20)
            out += raw
        raw_value = value.encode("ascii")
        out += _prefixed_int(len(raw_value), 7, 0x00)
        out += raw_value
    return bytes(out)


def decode_field_section(data: bytes) -> list:
    """Decode a static-only QPACK field section back to header pairs."""
    if len(data) < 2:
        raise H3ParseError("field section prefix truncated")
    offset = 2  # required insert count + base, both zero here
    headers = []
    while offset < len(data):
        first = data[offset]
        if first & 0x80:  # indexed field line
            if not first & 0x40:
                raise H3ParseError("dynamic-table reference not supported")
            index, offset = _decode_prefixed_int(data, offset, 6)
            if index >= len(STATIC_TABLE):
                raise H3ParseError(f"static index {index} out of range")
            headers.append(STATIC_TABLE[index])
        elif first & 0x40:  # literal with name reference
            if not first & 0x10:
                raise H3ParseError("dynamic-table name reference not supported")
            index, offset = _decode_prefixed_int(data, offset, 4)
            if index >= len(STATIC_TABLE):
                raise H3ParseError(f"static name index {index} out of range")
            name = STATIC_TABLE[index][0]
            value, offset = _read_string(data, offset)
            headers.append((name, value))
        elif first & 0x20:  # literal with literal name
            name_len, offset = _decode_prefixed_int(data, offset, 3)
            name = data[offset : offset + name_len].decode("ascii", "replace")
            if len(data) < offset + name_len:
                raise H3ParseError("literal name truncated")
            offset += name_len
            value, offset = _read_string(data, offset)
            headers.append((name, value))
        else:
            raise H3ParseError(f"unsupported field line 0x{first:02x}")
    return headers


def _read_string(data: bytes, offset: int) -> tuple:
    if offset < len(data) and data[offset] & 0x80:
        raise H3ParseError("Huffman-coded strings not supported")
    length, offset = _decode_prefixed_int(data, offset, 7)
    end = offset + length
    if end > len(data):
        raise H3ParseError("string literal truncated")
    return data[offset:end].decode("ascii", "replace"), end


# --------------------------------------------------------------------------
# HTTP/3 frames
# --------------------------------------------------------------------------


@dataclass
class H3Frame:
    frame_type: int
    payload: bytes

    def serialize(self) -> bytes:
        return (
            encode_varint(self.frame_type)
            + encode_varint(len(self.payload))
            + self.payload
        )


def parse_frames(data: bytes) -> list:
    """Parse a stream's bytes into HTTP/3 frames."""
    frames = []
    offset = 0
    try:
        while offset < len(data):
            frame_type, offset = decode_varint(data, offset)
            length, offset = decode_varint(data, offset)
            end = offset + length
            if end > len(data):
                raise H3ParseError("frame payload truncated")
            frames.append(H3Frame(frame_type, data[offset:end]))
            offset = end
    except VarintError as exc:
        raise H3ParseError(str(exc)) from exc
    return frames


# --------------------------------------------------------------------------
# requests and responses
# --------------------------------------------------------------------------


@dataclass
class H3Request:
    """A client request as carried on a request stream."""

    authority: str
    path: str = "/"
    method: str = "GET"
    extra_headers: list = field(default_factory=list)

    def serialize(self) -> bytes:
        headers = [
            (":method", self.method),
            (":scheme", "https"),
            (":authority", self.authority),
            (":path", self.path),
        ] + list(self.extra_headers)
        return H3Frame(FRAME_HEADERS, encode_field_section(headers)).serialize()

    @classmethod
    def parse(cls, data: bytes) -> "H3Request":
        frames = parse_frames(data)
        if not frames or frames[0].frame_type != FRAME_HEADERS:
            raise H3ParseError("request stream does not start with HEADERS")
        headers = decode_field_section(frames[0].payload)
        pseudo = dict(h for h in headers if h[0].startswith(":"))
        try:
            return cls(
                authority=pseudo[":authority"],
                path=pseudo.get(":path", "/"),
                method=pseudo[":method"],
                extra_headers=[h for h in headers if not h[0].startswith(":")],
            )
        except KeyError as exc:
            raise H3ParseError(f"missing pseudo-header {exc}") from exc


@dataclass
class H3Response:
    """A server response: status headers plus one DATA body frame."""

    status: int = 200
    body: bytes = b""
    extra_headers: list = field(default_factory=list)

    def serialize(self) -> bytes:
        headers = [(":status", str(self.status))] + list(self.extra_headers)
        out = H3Frame(FRAME_HEADERS, encode_field_section(headers)).serialize()
        if self.body:
            out += H3Frame(FRAME_DATA, self.body).serialize()
        return out

    @classmethod
    def parse(cls, data: bytes) -> "H3Response":
        frames = parse_frames(data)
        if not frames or frames[0].frame_type != FRAME_HEADERS:
            raise H3ParseError("response stream does not start with HEADERS")
        headers = decode_field_section(frames[0].payload)
        status = next((v for n, v in headers if n == ":status"), None)
        if status is None:
            raise H3ParseError("response missing :status")
        body = b"".join(
            f.payload for f in frames[1:] if f.frame_type == FRAME_DATA
        )
        return cls(
            status=int(status),
            body=body,
            extra_headers=[h for h in headers if not h[0].startswith(":")],
        )
