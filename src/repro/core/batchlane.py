"""Columnar batch fast lane for the per-packet analyze phase.

The rich path (:class:`~repro.core.classify.TrafficClassifier` +
:class:`~repro.core.dissect.QuicDissector`) builds a
:class:`~repro.core.classify.ClassifiedPacket` and a full
:class:`~repro.core.dissect.Dissection` object graph per packet.  At
telescope scale (the paper analyzes 92M packets/month) that object
traffic is the throughput ceiling, so this module takes the DPDK
burst-processing idea: parse whole batches with plain integer/bytes
operations and touch the rich dissector only for the minority of
payloads it cannot settle.

The unit of work is a :data:`LaneEntry` — a flat tuple holding exactly
the dissection facts the per-packet phase consumes downstream
(validity, malformed-reason slug, the per-session delta, the response
backscatter flags, and the first packet's version/DCID).  Entries are
pure in the payload bytes, so :class:`BatchLane` memoizes them in a
payload-keyed ``functools.lru_cache`` of
:data:`~repro.util.batching.MEMO_ENTRIES`, like the rich dissector; scan
templates repeat thousands of times, and a memo hit costs one C call
instead of any parsing at all.  Packets parsed from the wire
(``CapturedPacket.from_bytes``) already share a recurring payload
object, whose hash is cached, so their hits here are identity hits: no
rehash and no byte compare.  Backscatter carries a fresh server SCID
per connection and never recurs, so the bound keeps the templates and
lets the flood datagrams fall out.

On a memo miss :func:`fast_entry` walks the datagram with the exact
validation order of :func:`repro.quic.header.parse_header` /
:func:`repro.quic.packet.split_datagram` /
``QuicDissector._dissect_gquic`` — form/fixed bits, CID bounds, the
version-negotiation and retry shapes, token/length varints, the
RFC 9001 minima — but never materializes header views and never
decrypts Initials (the decrypt-derived fields ``has_plain_client_hello``
/ ``client_hello_sni`` / ``decrypted`` are not consumed outside the
dissector, so skipping the key schedule cannot change any result).
Anything the walk cannot prove valid falls back to
:meth:`QuicDissector.dissect_once`, whose :class:`Dissection` is folded
into the same entry shape — the never-raise contract and all 13
``MalformedReason`` slugs are therefore preserved with identical
tallies by construction.  ``tests/test_batchlane.py`` pins the
fast-vs-rich entry equality per payload and
``tests/test_lane_equivalence.py`` pins bit-identical
``PipelineResult``\\ s end to end.
"""

from __future__ import annotations

import functools
from typing import Optional

from repro import obs
from repro.core.classify import _TCP_RST, _TCP_SYN, _TCP_SYN_ACK, PacketClass
from repro.core.dissect import (
    MIN_GQUIC_LEN,
    MIN_SHORT_HEADER_LEN,
    Dissection,
    QuicDissector,
    _LONG_HEADER_TYPES,
)
from repro.net.packet import BACKSCATTER_TYPES, KIND_ICMP, KIND_TCP
from repro.quic.header import PacketType
from repro.quic.versions import version_by_value
from repro.util.batching import MEMO_ENTRIES

# Lane-owned metric families (docs/METRICS.md).  Registered on import —
# repro.core.pipeline imports this module, which keeps the registry and
# docs in sync via tests/test_docs_metrics_sync.py.
_M_FAST = obs.counter(
    "repro_batchlane_fast_total",
    "payload memo misses settled entirely by the columnar fast parser "
    "(trivial rejects included; no rich dissector involved)",
)
_M_FALLBACK = obs.counter(
    "repro_batchlane_fallback_total",
    "payload memo misses handed to the rich dissector, per reason",
    labels=("reason",),
)

#: why a memo miss left the fast parser:
#: ``parse`` — the walk could not prove the payload valid (the rich
#: dissector assigns the authoritative malformed slug or accepts it);
#: ``error`` — the fast parser raised (defensive mirror of the rich
#: path's never-raise boundary).
FALLBACK_REASONS = ("parse", "error")

# LaneEntry tuple indexes (kept a plain tuple: entries are created and
# cached millions of times, and tuples pickle/compare cheapest).
E_VALID = 0  # bool: dissector would accept the payload as QUIC
E_REASON = 1  # malformed slug (str) when invalid, else None
E_DELTA = 2  # session delta (below) when valid+dissected, else None
E_RETRY = 3  # bool: Dissection.has_retry
E_LONG = 4  # bool: Dissection.has_long_header
E_EMPTY_DCID = 5  # bool: Dissection.all_dcids_empty
E_VERSION = 6  # first packet's wire version (int) or None
E_DCID = 7  # first packet's DCID bytes, or None when invalid

#: the session delta at E_DELTA mirrors what
#: :meth:`repro.core.sessions.Session.add` extracts from a valid
#: dissection, with dict insertion order preserved:
#: ``(message_type_counts, scids, version_name_counts, retry_packets)``
#: where the two counts are ``((name, count), ...)`` in first-occurrence
#: order and ``scids`` holds the non-empty SCIDs in packet order.

_EMPTY_ENTRY = (False, "empty", None, False, False, False, None, None)
_NO_FIXED_BIT_ENTRY = (
    False, "no-fixed-bit", None, False, False, False, None, None,
)

_LONG_TYPE_NAMES = {0: "initial", 1: "zero-rtt", 2: "handshake"}
#: varint value mask per encoded length (the 2 prefix bits cleared).
_VMASK = {1: 0x3F, 2: 0x3FFF, 4: 0x3FFFFFFF, 8: 0x3FFFFFFFFFFFFFFF}

_TYPE_NAME = {
    packet_type: packet_type.name.lower().replace("_", "-")
    for packet_type in PacketType
}


def fast_entry(payload: bytes) -> Optional[tuple]:
    """Parse one UDP payload into a :data:`LaneEntry` without objects.

    Returns ``None`` when the payload needs the rich dissector — every
    reject beyond the two trivial first-byte cases, so the malformed
    taxonomy is always assigned by the authoritative parser.  Mirrors
    the validation order of ``parse_header``/``split_datagram`` and the
    gQUIC public-header check exactly; Initial decryption is skipped
    (header-only facts feed every downstream consumer).
    """
    n = len(payload)
    if not n:
        return _EMPTY_ENTRY
    first = payload[0]
    if not first & 0xC0:
        # neither form bit nor fixed bit: legacy gQUIC or trivial reject
        # (the dissector's cheap pre-check, same order).
        if n >= MIN_GQUIC_LEN and first & 0x01 and first & 0x08:
            tag = payload[9:13]
            if tag[0:1] == b"Q" and tag[1:].isdigit():
                version_value = int.from_bytes(tag, "big")
                known = version_by_value(version_value)
                name = known.name if known else f"gQUIC-{tag.decode()}"
                delta = ((("gquic", 1),), (), ((name, 1),), 0)
                return (
                    True, None, delta, False, False, False,
                    version_value, payload[1:9],
                )
        return _NO_FIXED_BIT_ENTRY

    # IETF coalesced walk (split_datagram order, headers inlined).
    names: list = []
    scids: list = []
    vnames: list = []
    retries = 0
    longs = 0
    dcids_empty = True
    first_set = False
    first_version: Optional[int] = None
    first_dcid = b""
    offset = 0
    while offset < n:
        first = payload[offset]
        if not first & 0x80:
            if not first & 0x40:
                return None  # no-fixed-bit (coalesced position)
            if n - offset < MIN_SHORT_HEADER_LEN:
                return None  # short-too-short
            names.append("one-rtt")
            if not first_set:
                first_set = True  # version None, dcid b"" (defaults)
            offset = n  # short header consumes the rest
            continue
        if n - offset < 7:
            return None  # truncated-header
        version = int.from_bytes(payload[offset + 1 : offset + 5], "big")
        pos = offset + 5
        cid_len = payload[pos]  # n-offset >= 7 guarantees this byte
        pos += 1
        if cid_len > 20 or pos + cid_len > n:
            return None  # bad-connection-id
        dcid = payload[pos : pos + cid_len]
        pos += cid_len
        if pos >= n:
            return None  # bad-connection-id (SCID length byte missing)
        cid_len = payload[pos]
        pos += 1
        if cid_len > 20 or pos + cid_len > n:
            return None  # bad-connection-id
        scid = payload[pos : pos + cid_len]
        pos += cid_len
        if version == 0:
            rest = n - pos
            if not rest or rest % 4:
                return None  # bad-version-negotiation
            names.append("version-negotiation")
            if scid:
                scids.append(scid)
            if not first_set:
                first_set = True
                first_dcid = dcid  # version stays None
            offset = n  # VN consumes the rest
            continue
        if not first & 0x40:
            return None  # no-fixed-bit (long header)
        ptype = (first >> 4) & 0x03
        if ptype == 3:  # RETRY: token + 16-byte integrity tag
            if n - pos < 16:
                return None  # truncated-payload
            known = version_by_value(version)
            names.append("retry")
            retries += 1
            if scid:
                scids.append(scid)
            if known is not None:
                vnames.append(known.name)
            if not first_set:
                first_set = True
                first_version = version
                first_dcid = dcid
            offset = n  # retry consumes the rest
            continue
        if ptype == 0:  # INITIAL: token varint precedes the length
            if pos >= n:
                return None  # bad-varint
            byte = payload[pos]
            vlen = 1 << (byte >> 6)
            vend = pos + vlen
            if vend > n:
                return None  # bad-varint
            token_len = int.from_bytes(payload[pos:vend], "big") & _VMASK[vlen]
            pos = vend
            if pos + token_len > n:
                return None  # truncated-payload
            pos += token_len
        if pos >= n:
            return None  # bad-varint
        byte = payload[pos]
        vlen = 1 << (byte >> 6)
        vend = pos + vlen
        if vend > n:
            return None  # bad-varint
        length = int.from_bytes(payload[pos:vend], "big") & _VMASK[vlen]
        pos = vend
        end = pos + length
        if end > n:
            return None  # truncated-payload
        if length < 4:
            return None  # payload-too-short (RFC 9001 §5.4.2)
        known = version_by_value(version)
        names.append(_LONG_TYPE_NAMES[ptype])
        if scid:
            scids.append(scid)
        if known is not None:
            vnames.append(known.name)
        longs += 1
        if dcid:
            dcids_empty = False
        if not first_set:
            first_set = True
            first_version = version
            first_dcid = dcid
        offset = end

    type_counts: dict = {}
    for name in names:
        type_counts[name] = type_counts.get(name, 0) + 1
    version_counts: dict = {}
    for name in vnames:
        version_counts[name] = version_counts.get(name, 0) + 1
    delta = (
        tuple(type_counts.items()),
        tuple(scids),
        tuple(version_counts.items()),
        retries,
    )
    return (
        True,
        None,
        delta,
        retries > 0,
        longs > 0,
        longs > 0 and dcids_empty,
        first_version,
        first_dcid,
    )


def entry_from_dissection(dissection: Dissection) -> tuple:
    """Fold a rich :class:`Dissection` into the :data:`LaneEntry` shape.

    The fallback path: whatever the fast parser could not settle goes
    through the authoritative dissector and lands in the same columnar
    representation, so downstream consumers never see which path ran.
    """
    if not dissection.valid:
        reason = (
            dissection.reason.value
            if dissection.reason is not None
            else "malformed"
        )
        return (False, reason, None, False, False, False, None, None)
    names: list = []
    scids: list = []
    vnames: list = []
    retries = 0
    longs = 0
    dcids_empty = True
    for packet in dissection.packets:
        packet_type = packet.packet_type
        names.append(_TYPE_NAME[packet_type])
        if packet_type is PacketType.RETRY:
            retries += 1
        if packet.scid:
            scids.append(packet.scid)
        if packet.version_name:
            vnames.append(packet.version_name)
        if packet_type in _LONG_HEADER_TYPES:
            longs += 1
            if packet.dcid:
                dcids_empty = False
    type_counts: dict = {}
    for name in names:
        type_counts[name] = type_counts.get(name, 0) + 1
    version_counts: dict = {}
    for name in vnames:
        version_counts[name] = version_counts.get(name, 0) + 1
    delta = (
        tuple(type_counts.items()),
        tuple(scids),
        tuple(version_counts.items()),
        retries,
    )
    head = dissection.packets[0] if dissection.packets else None
    return (
        True,
        None,
        delta,
        retries > 0,
        longs > 0,
        longs > 0 and dcids_empty,
        head.version if head is not None else None,
        head.dcid if head is not None else b"",
    )


def _settle(dissect_once, fallbacks: dict, payload: bytes) -> tuple:
    """One memo miss: the fast parser, else the rich dissector, with the
    fallback tallied per reason (so ``fast + fallback = misses``)."""
    try:
        entry = fast_entry(payload)
    except Exception:  # noqa: BLE001 - mirror the never-raise contract
        entry = None
        reason = "error"
    else:
        reason = "parse"
    if entry is not None:
        return entry
    fallbacks[reason] = fallbacks.get(reason, 0) + 1
    return entry_from_dissection(dissect_once(payload))


class BatchLane:
    """The analyze phase's columnar classifier/dissector.

    Duck-types the surface :meth:`PartialState.record_classifier`
    consumes from :class:`TrafficClassifier` — ``counters`` keyed by
    :class:`PacketClass`, ``cache_hits``/``cache_misses`` — so the lane
    slots into the serial, parallel-worker and streaming paths without
    any pipeline-side special cases.  One instance per stream/part,
    folded exactly once at stream end.
    """

    def __init__(self, dissect_payloads: bool = True) -> None:
        self.dissect_payloads = dissect_payloads
        #: memo misses per fallback reason (see :data:`FALLBACK_REASONS`).
        self.fallbacks: dict[str, int] = {}
        # a partial over the dissector and the tallies, not a bound
        # method: the memo holds no reference to the lane, so a finished
        # lane frees its entries at once instead of at the next collection
        self._entry_uncached = functools.partial(
            _settle, QuicDissector().dissect_once, self.fallbacks
        )
        #: the :data:`LaneEntry` for one payload, memoized.
        self.entry_for = functools.lru_cache(maxsize=MEMO_ENTRIES)(
            self._entry_uncached
        )
        self.counters = {packet_class: 0 for packet_class in PacketClass}

    @property
    def cache_hits(self) -> int:
        return self.entry_for.cache_info().hits

    @property
    def cache_misses(self) -> int:
        return self.entry_for.cache_info().misses

    @property
    def fast_parses(self) -> int:
        """Memo misses the fast parser settled without the dissector."""
        return self.cache_misses - sum(self.fallbacks.values())

    # -- adapters: one batch -> observations --------------------------------
    #
    # The only two runs of the scalar classification ladder, one per
    # input representation (docs/ARCHITECTURE.md, "observations:
    # adapters and sinks").  Each returns the batch's *observations* —
    # ``(kind, source, timestamp, dst, dst_port, wire_length, entry)``
    # for the four session-bearing classes, ``kind`` being that
    # :class:`PacketClass` and ``entry`` the payload's memoized
    # :data:`LaneEntry` (``None`` for TCP/ICMP and when
    # ``dissect_payloads`` is off) — tallies all ten classes on
    # :attr:`counters`, and the malformed reasons into the dict it is
    # handed.  What the observations update is the sink's business:
    # :meth:`PartialState.apply`, :meth:`SketchTier.apply`.

    def observe_packets(self, packets: list, malformed_counts: dict) -> list:
        """Observations of a batch of :class:`CapturedPacket`\\ s (a
        capture or a live feed)."""
        entry_for = self.entry_for
        dissect = self.dissect_payloads
        request_cls = PacketClass.QUIC_REQUEST
        response_cls = PacketClass.QUIC_RESPONSE
        tcp_cls = PacketClass.TCP_BACKSCATTER
        icmp_cls = PacketClass.ICMP_BACKSCATTER
        observations: list = []
        observe = observations.append
        n_request = n_response = n_nonquic = n_other_udp = 0
        n_tcp_request = n_tcp_back = n_tcp_other = 0
        n_icmp_back = n_icmp_other = n_other = 0
        for packet in packets:
            proto = packet.proto
            if proto == 17:
                src443 = packet.src_port == 443
                dst443 = packet.dst_port == 443
                if src443:
                    if dst443:
                        # never observed in the paper's data; rejected
                        # before dissection, like the rich classifier
                        n_nonquic += 1
                        malformed_counts["port-conflict"] = (
                            malformed_counts.get("port-conflict", 0) + 1
                        )
                        continue
                elif not dst443:
                    n_other_udp += 1
                    continue
                entry = None
                if dissect:
                    entry = entry_for(packet.payload)
                    if not entry[0]:
                        n_nonquic += 1
                        reason = entry[1]
                        malformed_counts[reason] = (
                            malformed_counts.get(reason, 0) + 1
                        )
                        continue
                if dst443:
                    n_request += 1
                    quic_cls = request_cls
                else:
                    n_response += 1
                    quic_cls = response_cls
                observe((
                    quic_cls, packet.src, packet.timestamp, packet.dst,
                    packet.dst_port, packet.wire_length, entry,
                ))
            elif proto == 6:
                if packet.kind != KIND_TCP:
                    n_tcp_other += 1
                    continue
                flags = packet.tcp_flags
                if (flags & _TCP_SYN_ACK) == _TCP_SYN_ACK or flags & _TCP_RST:
                    n_tcp_back += 1
                    observe((
                        tcp_cls, packet.src, packet.timestamp, packet.dst,
                        packet.dst_port, packet.wire_length, None,
                    ))
                elif flags & _TCP_SYN:
                    n_tcp_request += 1
                else:
                    n_tcp_other += 1
            elif proto == 1:
                if (
                    packet.kind == KIND_ICMP
                    and packet.icmp_type in BACKSCATTER_TYPES
                ):
                    n_icmp_back += 1
                    observe((
                        icmp_cls, packet.src, packet.timestamp, packet.dst,
                        None, packet.wire_length, None,
                    ))
                else:
                    n_icmp_other += 1
            else:
                n_other += 1
        self._tally(
            n_request, n_response, n_nonquic, n_other_udp, n_tcp_request,
            n_tcp_back, n_tcp_other, n_icmp_back, n_icmp_other, n_other,
        )
        return observations

    def observe_records(self, records: list, malformed_counts: dict) -> list:
        """Observations of a batch of scalar *lane records*.

        Defines the 11-field lane record that the generation lane
        (:mod:`repro.telescope.genlane`) emits:
        ``(timestamp, src, dst, total_length, proto, kind, f1, f2, f3,
        payload_length, payload)``.  ``kind`` is
        :attr:`CapturedPacket.kind` (0 no transport header parsed,
        1 UDP, 2 TCP, 3 ICMP), ``f1/f2`` the ports (UDP/TCP) or ICMP
        type/code, ``f3`` the TCP flags; 0 where they do not apply.
        ``payload`` is only materialized for dissectable UDP/443
        packets; ``payload_length`` is always the true length so wire
        lengths match :attr:`CapturedPacket.wire_length` exactly.
        """
        entry_for = self.entry_for
        dissect = self.dissect_payloads
        request_cls = PacketClass.QUIC_REQUEST
        response_cls = PacketClass.QUIC_RESPONSE
        tcp_cls = PacketClass.TCP_BACKSCATTER
        icmp_cls = PacketClass.ICMP_BACKSCATTER
        observations: list = []
        observe = observations.append
        n_request = n_response = n_nonquic = n_other_udp = 0
        n_tcp_request = n_tcp_back = n_tcp_other = 0
        n_icmp_back = n_icmp_other = n_other = 0
        for record in records:
            (
                timestamp,
                source,
                dst,
                total_length,
                proto,
                kind,
                f1,
                f2,
                f3,
                payload_length,
                payload,
            ) = record
            if proto == 17:
                # ports mirror CapturedPacket's derivation: present for
                # parsed UDP/TCP transports, None otherwise
                if kind != 1 and kind != 2:
                    n_other_udp += 1
                    continue
                src443 = f1 == 443
                dst443 = f2 == 443
                if src443:
                    if dst443:
                        n_nonquic += 1
                        malformed_counts["port-conflict"] = (
                            malformed_counts.get("port-conflict", 0) + 1
                        )
                        continue
                elif not dst443:
                    n_other_udp += 1
                    continue
                entry = None
                if dissect:
                    entry = entry_for(payload)
                    if not entry[0]:
                        n_nonquic += 1
                        reason = entry[1]
                        malformed_counts[reason] = (
                            malformed_counts.get(reason, 0) + 1
                        )
                        continue
                wire_length = total_length or (
                    28 + payload_length  # IPv4 20 + UDP 8
                    if kind == 1
                    else 40 + payload_length  # IPv4 20 + TCP 20
                )
                if dst443:
                    n_request += 1
                    quic_cls = request_cls
                else:
                    n_response += 1
                    quic_cls = response_cls
                observe((quic_cls, source, timestamp, dst, f2, wire_length, entry))
            elif proto == 6:
                if kind != 2:
                    n_tcp_other += 1
                    continue
                if (f3 & _TCP_SYN_ACK) == _TCP_SYN_ACK or f3 & _TCP_RST:
                    n_tcp_back += 1
                    wire_length = total_length or 40 + payload_length
                    observe((tcp_cls, source, timestamp, dst, f2, wire_length, None))
                elif f3 & _TCP_SYN:
                    n_tcp_request += 1
                else:
                    n_tcp_other += 1
            elif proto == 1:
                if kind == 3 and f1 in BACKSCATTER_TYPES:
                    n_icmp_back += 1
                    wire_length = total_length or 28 + payload_length
                    observe(
                        (icmp_cls, source, timestamp, dst, None, wire_length, None)
                    )
                else:
                    n_icmp_other += 1
            else:
                n_other += 1
        self._tally(
            n_request, n_response, n_nonquic, n_other_udp, n_tcp_request,
            n_tcp_back, n_tcp_other, n_icmp_back, n_icmp_other, n_other,
        )
        return observations

    def _tally(self, *counts: int) -> None:
        """Add one batch's per-class counts, given in
        :class:`PacketClass` declaration order."""
        counters = self.counters
        for packet_class, count in zip(PacketClass, counts):
            counters[packet_class] += count

    def publish_lane_metrics(self) -> None:
        """Publish the fast/fallback split to the registry.

        Invoked (via duck-typed hook) from
        :meth:`PartialState.record_classifier` — the exactly-once fold
        point every path already funnels through, so parallel snapshots
        merge without double counting.
        """
        if self.fast_parses:
            _M_FAST.inc(self.fast_parses)
        for reason, count in self.fallbacks.items():
            if count:
                _M_FALLBACK.inc(count, reason=reason)
