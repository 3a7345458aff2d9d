"""The network telescope itself: a darknet packet tap.

A telescope is a routed but unused prefix whose every incoming packet
is unsolicited by construction.  :class:`Telescope` filters an incoming
stream down to packets destined to its prefix, keeps arrival counters,
and can persist captures to pcap for offline analysis — the same
pipeline shape as the UCSD telescope feeding the paper's toolchain.
"""

from __future__ import annotations

import operator
import time
from bisect import bisect_left, insort
from heapq import heappop, heappush
from itertools import islice
from typing import Iterable, Iterator, Sequence

from repro import obs
from repro.net.addresses import IPv4Network
from repro.net.packet import CapturedPacket
from repro.net.pcap import write_pcap
from repro.telescope.genlane import M_RECORDS as _M_LANE_RECORDS

# Generation-rate metrics.  The capture generator is the single funnel
# every scenario stream passes through, so it is the one place to count
# generated packets — flushed every _FLUSH_EVERY packets (and at
# generator close) to keep the per-packet loop free of metric calls.
_M_GENERATED = obs.counter(
    "repro_telescope_packets_total",
    "packets captured by the telescope tap (destined to its prefix)",
)
_M_DROPPED = obs.counter(
    "repro_telescope_dropped_total",
    "generated packets outside the telescope prefix (not captured)",
)
_M_GENERATE = obs.histogram(
    "repro_telescope_generate_seconds",
    "wall seconds per full capture-stream generation",
)
_FLUSH_EVERY = 4096
#: records pulled from a unit per generator resumption in merge_chunks
_PULL = 256


class Telescope:
    """A /N darknet capturing unsolicited traffic."""

    def __init__(self, prefix: IPv4Network) -> None:
        self.prefix = prefix
        self.packets_seen = 0
        self.packets_dropped = 0

    @property
    def extrapolation_factor(self) -> float:
        """Scale factor from telescope counts to Internet-wide counts.

        The paper's /9 covers 1/512 of IPv4, hence the 512x max-pps
        extrapolation in Section 5.2.
        """
        return 2.0 ** self.prefix.prefix_len

    def capture(self, stream: Iterable[CapturedPacket]) -> Iterator[CapturedPacket]:
        """Yield only packets destined to the telescope prefix."""
        if not obs.enabled():
            for packet in stream:
                if packet.dst in self.prefix:
                    self.packets_seen += 1
                    yield packet
                else:
                    self.packets_dropped += 1
            return
        # metrics-on path: identical filtering, counters flushed in bulk
        seen_base = self.packets_seen
        dropped_base = self.packets_dropped
        flushed = 0
        start = time.perf_counter()
        try:
            for packet in stream:
                if packet.dst in self.prefix:
                    self.packets_seen += 1
                    yield packet
                    pending = self.packets_seen - seen_base - flushed
                    if pending >= _FLUSH_EVERY:
                        _M_GENERATED.inc(pending)
                        flushed += pending
                else:
                    self.packets_dropped += 1
        finally:
            _M_GENERATED.inc(self.packets_seen - seen_base - flushed)
            _M_DROPPED.inc(self.packets_dropped - dropped_base)
            _M_GENERATE.observe(time.perf_counter() - start)

    def capture_records(self, chunks: Iterable[list]) -> Iterator[list]:
        """The generation fast lane's twin of :meth:`capture`.

        Filters time-sorted chunks (lists) of flat gen records (see
        :mod:`repro.telescope.genlane`) on their destination field, one
        list comprehension per chunk, with the same counters and
        metrics — flushed per chunk — plus the lane's own
        ``repro_genlane_records_total``.
        """
        network = self.prefix.network
        netmask = self.prefix.netmask
        start = time.perf_counter()
        try:
            for chunk in chunks:
                kept = [record for record in chunk if record[2] & netmask == network]
                seen = len(kept)
                dropped = len(chunk) - seen
                self.packets_seen += seen
                self.packets_dropped += dropped
                _M_GENERATED.inc(seen)
                _M_LANE_RECORDS.inc(seen)
                _M_DROPPED.inc(dropped)
                if kept:
                    yield kept
        finally:
            _M_GENERATE.observe(time.perf_counter() - start)

    def capture_to_pcap(self, stream: Iterable[CapturedPacket], path) -> int:
        """Capture a stream to a pcap file; returns the packet count."""
        return write_pcap(path, self.capture(stream))


def merge_chunks(units: Sequence[tuple], window: float) -> Iterator[list]:
    """Merge time-sorted record iterators one time window at a time.

    ``units`` holds ``(start, iterator)`` pairs in tie-break order: no
    record of ``iterator`` is earlier than ``start``, and the iterator
    is not advanced before the window containing ``start`` is due (a
    flood's responder is set up when the flood begins, not at t0).  Per
    window, the records below its upper edge are taken from each active
    unit in unit order into one list and ``list.sort`` orders it by
    timestamp.  The sort is stable, so records with equal timestamps
    keep unit order and, within a unit, emission order — the order
    ``heapq.merge(*iterators, key=itemgetter(0))`` produces — by
    construction.  Concatenated, the yielded (non-empty) lists are that
    merge.
    """
    first = operator.itemgetter(0)  # a record's timestamp, a state's position
    # (start, position) descending: pop() hands out the next unit to join
    waiting = sorted(
        ((start, position, iter(unit)) for position, (start, unit) in enumerate(units)),
        key=operator.itemgetter(0, 1),
        reverse=True,
    )
    active: list = []  # (position, iterator, buffered records), by position
    edge = float("-inf")
    while waiting or active:
        if not active:
            edge = max(edge, waiting[-1][0])
        edge += window
        while waiting and waiting[-1][0] < edge:
            _start, position, unit = waiting.pop()
            insort(active, (position, unit, []), key=first)
        chunk: list = []
        for _position, unit, buffer in active:
            while not (buffer and buffer[-1][0] >= edge):
                block = list(islice(unit, _PULL))
                buffer += block
                if len(block) < _PULL:
                    break  # exhausted
            cut = bisect_left(buffer, edge, key=first)
            chunk += buffer[:cut]
            del buffer[:cut]
        # a unit that is not exhausted has buffered a record past the edge
        active = [state for state in active if state[2]]
        if chunk:
            chunk.sort(key=first)
            yield chunk


def in_time_order(sessions: Iterable[tuple], start: float, end: float) -> Iterator[tuple]:
    """A unit's sessions as one time-sorted stream of its records in [start, end).

    ``sessions`` yields ``(session_start, records)`` pairs with
    non-decreasing starts, no record earlier than its session's start.
    Records wait in a ``(timestamp, sequence)`` reorder heap and leave it
    once no later session can precede them — at or before the next
    session's start — so the output is the stable sort of every session
    concatenated, and memory is bounded by the sessions still open, not
    by the window.
    """
    pending: list = []
    sequence = 0
    for session_start, records in sessions:
        while pending and pending[0][0] <= session_start:
            record = heappop(pending)[2]
            if start <= record[0] < end:
                yield record
        for record in records:
            heappush(pending, (record[0], sequence, record))
            sequence += 1
    while pending:
        record = heappop(pending)[2]
        if start <= record[0] < end:
            yield record
