"""Generation fast lane: flat record synthesis + wire-template stamping.

The mirror image of ``repro.core.batchlane``.  The batch lane made
*analysis* fast by walking raw bytes instead of building header
objects; this module makes *generation* fast the same way.  Traffic
models emit flat tuples from ``records()`` — the generator building
:class:`~repro.net.packet.CapturedPacket` objects out of header
objects is the tests' reference (``tests/reference/generator.py``);
production gets its packets by parsing the stamped bytes back
(``Scenario.packets``) — and
this module turns those tuples into wire bytes by stamping
preallocated template buffers: bytearray copies of each distinct
datagram with the mutable fields (addresses, ports, checksums, TCP
sequence numbers, ICMP identifiers) patched in place per packet,
DPDK-style, instead of re-serializing four header objects per packet.

Record format
-------------

A *gen record* is the batch lane's 11-field lane record, optionally
extended with two wire-only fields::

    (timestamp, src, dst, total_length, proto, kind,
     f1, f2, f3, payload_length, payload[, x1, x2])

The lane record is defined on ``BatchLane.observe_records``
(kind 1 UDP: ports; kind 2 TCP: ports + flags; kind 3 ICMP: type/code).
UDP records are plain 11-tuples — they already *are* lane records, so
the generate→analyze path hands them to
``PartialState.consume_lane_records`` with zero conversion.  TCP and
ICMP records carry two extra fields the lane never looks at but the
wire needs: ``x1``/``x2`` are the TCP sequence/acknowledgement numbers
or the ICMP identifier/sequence.  :func:`lane_records` strips them
(``record[:11]``; a no-op object-identity slice for the 11-tuples).

Checksums without serializers
-----------------------------

A 16-bit one's-complement sum is just a big integer mod ``0xFFFF``, so
each template precomputes the sum of every word that does not change
between packets — including the whole payload, folded once at template
build time via ``int.from_bytes(payload) % 0xFFFF`` (C speed).  Per
packet only the handful of varying words (address halves, ports,
seq/ack, identifier) are added and the total folded; the result is
bit-identical to ``net.checksum.internet_checksum`` over the full
buffer because one's-complement addition is associative and the fold
preserves the value mod ``0xFFFF``.

The stamped buffers are **borrowed**: :meth:`WireStamper.wire` returns
the template's internal bytearray, valid only until the next call for
the same payload.  Consumers must copy before the next stamp —
``net.pcap.write_records`` appends each buffer into its chunk buffer
immediately, which is exactly that copy.
"""

from __future__ import annotations

import struct
from typing import Iterable, Iterator, Tuple

#: index aliases into a gen record (the first 11 match the lane record)
GEN_TS, GEN_SRC, GEN_DST = 0, 1, 2
GEN_TOTAL, GEN_PROTO, GEN_KIND = 3, 4, 5
GEN_F1, GEN_F2, GEN_F3 = 6, 7, 8
GEN_PLEN, GEN_PAYLOAD, GEN_X1, GEN_X2 = 9, 10, 11, 12

_IP_BASE = struct.Struct("!BBHHHBBH")  # through the checksum field
_UDP_BASE = struct.Struct("!HHHH")
_TCP_BASE = struct.Struct("!HHIIBBHHH")
_ICMP_BASE = struct.Struct("!BBHHH")

# per-packet stamp regions (offsets into the full IP datagram):
#   UDP : ip ck @10, src @12, dst @16, sport @20, dport @22, udp ck @26
#   TCP : ip ck @10, src @12, dst @16, ports @20, seq @24, ack @28,
#         flags byte @33, tcp ck @36
#   ICMP: ip ck @10, src @12, dst @16, icmp ck @22, ident @24, seq @26
_UDP_STAMP = struct.Struct(">HIIHH")
_TCP_STAMP = struct.Struct(">HIIHHII")
_ICMP_STAMP = struct.Struct(">HII")
_ICMP_TAIL = struct.Struct(">HHH")
_CK = struct.Struct(">H")

#: wholesale-clear bound for the per-payload template table (responder
#: Initials carry a fresh ServerHello random, so their payloads never
#: repeat; without a cap the table would grow with scenario length)
MAX_TEMPLATES = 8192


def _payload_mod(payload: bytes) -> int:
    """The payload's one's-complement word sum, reduced mod 0xFFFF."""
    if not payload:
        return 0
    if len(payload) & 1:
        payload = payload + b"\x00"
    return int.from_bytes(payload, "big") % 0xFFFF


class WireStamper:
    """Stamps gen records into RFC-exact wire bytes via cached templates.

    One template per distinct ``(kind, payload)``; stamping a packet is
    two ``struct.pack_into`` calls and a dozen integer adds.  The
    output is byte-identical to ``CapturedPacket.to_bytes()`` for the
    headers the generators produce (TTL 64, no IP options, TCP window
    65535) — ``tests/test_genlane_equivalence.py`` pins whole-pcap
    equality against the reference generator.
    """

    def __init__(self) -> None:
        self._udp: dict[bytes, tuple] = {}
        self._icmp: dict[tuple, tuple] = {}
        self._tcp_buf = bytearray(40)
        _IP_BASE.pack_into(self._tcp_buf, 0, 0x45, 0, 40, 0, 0x4000, 64, 6, 0)
        _TCP_BASE.pack_into(self._tcp_buf, 20, 0, 0, 0, 0, 5 << 4, 0, 65535, 0, 0)
        self._tcp_ip_const = 0x4500 + 40 + 0x4000 + 0x4006
        # pseudo-header proto + length words, data-offset base, window
        self._tcp_const = 6 + 20 + 0x5000 + 0xFFFF
        self.stamped = 0
        self.templates_built = 0

    def __len__(self) -> int:
        return len(self._udp) + len(self._icmp) + 1  # + the TCP template

    # -- template builders -------------------------------------------------

    def _build_udp(self, payload: bytes) -> tuple:
        if len(self._udp) >= MAX_TEMPLATES:
            self._udp.clear()
        plen = len(payload)
        total = 28 + plen
        buf = bytearray(total)
        _IP_BASE.pack_into(buf, 0, 0x45, 0, total, 0, 0x4000, 64, 17, 0)
        _UDP_BASE.pack_into(buf, 20, 0, 0, 8 + plen, 0)
        buf[28:] = payload
        ip_const = 0x4500 + total + 0x4000 + 0x4011
        udp_const = 17 + 2 * (8 + plen) + _payload_mod(payload)
        entry = (buf, ip_const, udp_const)
        self._udp[payload] = entry
        self.templates_built += 1
        return entry

    def _build_icmp(self, key: tuple) -> tuple:
        if len(self._icmp) >= MAX_TEMPLATES:
            self._icmp.clear()
        icmp_type, code, payload = key
        plen = len(payload)
        total = 28 + plen
        buf = bytearray(total)
        _IP_BASE.pack_into(buf, 0, 0x45, 0, total, 0, 0x4000, 64, 1, 0)
        _ICMP_BASE.pack_into(buf, 20, icmp_type, code, 0, 0, 0)
        buf[28:] = payload
        ip_const = 0x4500 + total + 0x4000 + 0x4001
        head_const = ((icmp_type << 8) | code) + _payload_mod(payload)
        entry = (buf, ip_const, head_const)
        self._icmp[key] = entry
        self.templates_built += 1
        return entry

    # -- stamping ----------------------------------------------------------

    def wire(self, record: tuple) -> bytearray:
        """Return the wire bytes for one gen record (borrowed buffer)."""
        kind = record[5]
        src = record[1]
        dst = record[2]
        addr = (src >> 16) + (src & 0xFFFF) + (dst >> 16) + (dst & 0xFFFF)
        self.stamped += 1
        if kind == 1:
            payload = record[10]
            entry = self._udp.get(payload)
            if entry is None:
                entry = self._build_udp(payload)
            buf, ip_const, udp_const = entry
            total = ip_const + addr
            total = (total & 0xFFFF) + (total >> 16)
            total = (total & 0xFFFF) + (total >> 16)
            sport = record[6]
            dport = record[7]
            check = udp_const + addr + sport + dport
            check = (check & 0xFFFF) + (check >> 16)
            check = (check & 0xFFFF) + (check >> 16)
            _UDP_STAMP.pack_into(
                buf, 10, ~total & 0xFFFF, src, dst, sport, dport
            )
            _CK.pack_into(buf, 26, (~check & 0xFFFF) or 0xFFFF)
            return buf
        if kind == 2:
            buf = self._tcp_buf
            flags = record[8]
            seq = record[11]
            ack = record[12]
            total = self._tcp_ip_const + addr
            total = (total & 0xFFFF) + (total >> 16)
            total = (total & 0xFFFF) + (total >> 16)
            sport = record[6]
            dport = record[7]
            check = (
                self._tcp_const + flags + addr + sport + dport
                + (seq >> 16) + (seq & 0xFFFF)
                + (ack >> 16) + (ack & 0xFFFF)
            )
            check = (check & 0xFFFF) + (check >> 16)
            check = (check & 0xFFFF) + (check >> 16)
            _TCP_STAMP.pack_into(
                buf, 10, ~total & 0xFFFF, src, dst, sport, dport, seq, ack
            )
            buf[33] = flags
            _CK.pack_into(buf, 36, ~check & 0xFFFF)
            return buf
        if kind == 3:
            key = (record[6], record[7], record[10])
            entry = self._icmp.get(key)
            if entry is None:
                entry = self._build_icmp(key)
            buf, ip_const, head_const = entry
            total = ip_const + addr
            total = (total & 0xFFFF) + (total >> 16)
            total = (total & 0xFFFF) + (total >> 16)
            ident = record[11]
            seq = record[12]
            check = head_const + ident + seq
            check = (check & 0xFFFF) + (check >> 16)
            check = (check & 0xFFFF) + (check >> 16)
            _ICMP_STAMP.pack_into(buf, 10, ~total & 0xFFFF, src, dst)
            _ICMP_TAIL.pack_into(buf, 22, ~check & 0xFFFF, ident, seq)
            return buf
        raise ValueError(f"gen record with unknown kind {kind}")


#: the process-wide stamper behind :func:`wire_items`; its tallies feed
#: the ``repro_genlane_wire_*`` collector below.
_STAMPER = WireStamper()


def wire_items(records: Iterable[tuple]) -> Iterator[Tuple[float, bytearray]]:
    """Map gen records to ``(timestamp, wire_bytes)`` pairs.

    The byte buffers are borrowed from the shared stamper (valid until
    the next item) — feed this straight into
    :func:`repro.net.pcap.write_records`, which copies per item.
    """
    wire = _STAMPER.wire
    for record in records:
        yield record[0], wire(record)


#: the batch lane's record width; TCP/ICMP gen records carry two more
LANE_FIELDS = 11


def lane_records(records: Iterable[tuple]) -> Iterator[tuple]:
    """Strip gen records down to the batch lane's 11-field records."""
    for record in records:
        yield record if len(record) == LANE_FIELDS else record[:LANE_FIELDS]


# -- observability ---------------------------------------------------------
# Registered at import, collected at export time; the hot loops above
# touch plain instance attributes only (the obs design rule: publish at
# boundaries, never per packet).
from repro import obs as _obs  # noqa: E402  (after the stamper it observes)

_M_WIRE_STAMPED = _obs.counter(
    "repro_genlane_wire_stamped_total",
    "wire datagrams stamped from preallocated templates",
)
_M_WIRE_TEMPLATES = _obs.gauge(
    "repro_genlane_wire_templates",
    "distinct wire templates currently held by the shared stamper",
)


def _collect_stamper_metrics() -> None:
    _M_WIRE_STAMPED.set_total(_STAMPER.stamped)
    _M_WIRE_TEMPLATES.set(len(_STAMPER))


_obs.REGISTRY.add_collector(_collect_stamper_metrics)
