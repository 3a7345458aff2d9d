"""The network telescope itself: a darknet packet tap.

A telescope is a routed but unused prefix whose every incoming packet
is unsolicited by construction.  :class:`Telescope` filters the merged
generation stream down to the records destined to its prefix and counts
what it kept and dropped; ``repro simulate`` writes what it keeps to a
pcap (:func:`repro.net.pcap.write_records`) — the same pipeline shape as
the UCSD telescope feeding the paper's toolchain.
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

# Generation-rate metrics, published once per chunk at the tap every
# scenario stream passes through.
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
#: records pulled from a unit per generator resumption in merge_chunks
_PULL = 64


class Telescope:
    """A /N darknet capturing unsolicited traffic."""

    def __init__(self, prefix: IPv4Network) -> None:
        self.prefix = prefix

    @property
    def extrapolation_factor(self) -> float:
        """Scale factor from telescope counts to Internet-wide counts.

        The paper's /9 covers 1/512 of IPv4, hence the 512x max-pps
        extrapolation in Section 5.2.
        """
        return 2.0 ** self.prefix.prefix_len

    def capture_records(self, chunks: Iterable[list]) -> Iterator[list]:
        """The tap: keep the records destined to the telescope prefix.

        Filters time-sorted chunks (lists) of flat gen records (see
        :mod:`repro.telescope.genlane`) on their destination field, one
        list comprehension per chunk, and publishes the kept and dropped
        counts once per chunk.
        """
        network = self.prefix.network
        netmask = self.prefix.netmask
        start = time.perf_counter()
        try:
            for chunk in chunks:
                kept = [record for record in chunk if record[2] & netmask == network]
                seen = len(kept)
                _M_GENERATED.inc(seen)
                _M_DROPPED.inc(len(chunk) - seen)
                if kept:
                    yield kept
        finally:
            _M_GENERATE.observe(time.perf_counter() - start)


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
    merge, whatever the window; what the merge holds at once is one
    window of records plus up to ``_PULL`` pulled ahead per active unit.
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
