"""Session aggregation: from packets to events (Section 5.1).

Packets from one source belong to the same session while the gap
between consecutive packets stays below an inactivity *timeout*.
Figure 4 sweeps the timeout from 1 to 60 minutes and picks the 5-minute
knee; :class:`TimeoutSweep` reproduces that analysis from per-source
runs of packets without re-running the sessionizer per timeout.

Sessions accumulate exactly the summary statistics the downstream
stages need (Moore-threshold fields; for QUIC backscatter only, the
SCID/port/address sets of Figure 9 and the message-type tallies of
Section 6) so the pipeline never stores raw packets.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field, replace
from operator import sub
from typing import Callable, Iterable, Optional

from repro.quic.header import PacketType
from repro.util.timeutil import MINUTE
from repro.core.classify import ClassifiedPacket

#: The paper's chosen inactivity timeout (the Figure 4 knee).
DEFAULT_TIMEOUT = 5 * MINUTE


def keeps_detail(traffic_class: str) -> bool:
    """Whether the class's sessions keep destinations and dissection
    tallies — read only for QUIC backscatter (Figure 9, message types)."""
    return traffic_class == "quic-response"


class _NoCounts(dict):
    """A read-only empty tally; copies as itself and pickles, unlike a mapping proxy."""

    __slots__ = ()

    def _refuse(self, *args, **kwargs):
        raise TypeError("a session that keeps no detail keeps no tallies")

    __setitem__ = __delitem__ = __ior__ = _refuse
    clear = pop = popitem = setdefault = update = _refuse

    def copy(self):
        return self


#: the detail fields of every session a :class:`Sessionizer` opens for a
#: class that keeps no detail: read-only empty stand-ins they all share
_STAND_INS = dict(
    dst_ips=frozenset(), dst_ports=frozenset(), scids=frozenset(),
    message_types=_NoCounts(), version_names=_NoCounts(),
)


@dataclass(slots=True)
class Session:
    """One per-source traffic session; the destination and dissection
    fields stay empty unless its class :func:`keeps_detail`."""

    source: int
    traffic_class: str
    first_ts: float
    last_ts: float = 0.0
    packet_count: int = 0
    byte_count: int = 0
    dst_ips: set = field(default_factory=set)
    dst_ports: set = field(default_factory=set)
    scids: set = field(default_factory=set)
    message_types: dict = field(default_factory=dict)
    minute_slots: dict = field(default_factory=dict)
    retry_packets: int = 0
    version_names: dict = field(default_factory=dict)

    def __getstate__(self) -> tuple:  # pickled field values, not a dict keyed by slot name
        return tuple(map(self.__getattribute__, self.__slots__))

    def __setstate__(self, state: tuple) -> None:
        for name, value in zip(self.__slots__, state):
            setattr(self, name, value)

    @property
    def duration(self) -> float:
        return self.last_ts - self.first_ts

    @property
    def max_pps(self) -> float:
        """Maximum packet rate over the session's 1-minute slots."""
        if not self.minute_slots:
            return 0.0
        return max(self.minute_slots.values()) / MINUTE

    def add(self, classified: ClassifiedPacket) -> None:
        packet = classified.packet
        self.last_ts = packet.timestamp
        self.packet_count += 1
        self.byte_count += packet.wire_length
        slot = int(packet.timestamp // MINUTE)
        self.minute_slots[slot] = self.minute_slots.get(slot, 0) + 1
        if not keeps_detail(self.traffic_class):
            return
        self.dst_ips.add(packet.dst)
        if packet.dst_port is not None:
            self.dst_ports.add(packet.dst_port)
        dissection = classified.dissection
        if dissection is not None and dissection.valid:
            for summary in dissection.packets:
                name = _type_name(summary.packet_type)
                self.message_types[name] = self.message_types.get(name, 0) + 1
                if summary.packet_type is PacketType.RETRY:
                    self.retry_packets += 1
                if summary.scid:
                    self.scids.add(summary.scid)
                if summary.version_name:
                    self.version_names[summary.version_name] = (
                        self.version_names.get(summary.version_name, 0) + 1
                    )

    def apply_run(self, stamps, dsts, ports, lengths, deltas) -> None:
        """Scalar-field twin of :meth:`add` for the batch fast lane,
        over a run of lane entries (columns in stream order, ``stamps``
        non-decreasing), one update per field: an add per minute slot
        touched, a fold per distinct delta object.

        A delta is a precomputed per-datagram dissection summary —
        ``(message_type_counts, scids, version_name_counts,
        retry_packets)`` with counts as ``((name, n), ...)`` in
        first-occurrence order — so the resulting dicts and sets are
        identical (insertion order included) to feeding the packets
        through :meth:`add` one by one.  Only a class that
        :func:`keeps_detail` reads ``dsts``, ``ports`` and ``deltas``."""
        self.last_ts = stamps[-1]
        self.packet_count += len(stamps)
        self.byte_count += sum(lengths)
        slots = self.minute_slots
        for slot, count in per_bucket(stamps, MINUTE):
            slots[slot] = slots.get(slot, 0) + count
        if not keeps_detail(self.traffic_class):
            return
        self.dst_ips.update(dsts)
        self.dst_ports.update(ports)
        self.dst_ports.discard(None)
        for delta, count in distinct(deltas):
            if delta is not None:
                self._fold(delta, count)

    def _fold(self, delta: tuple, count: int) -> None:
        type_counts, scids, version_counts, retries = delta
        message_types = self.message_types
        for name, n in type_counts:
            message_types[name] = message_types.get(name, 0) + n * count
        self.retry_packets += retries * count
        if scids:
            self.scids.update(scids)
        version_names = self.version_names
        for name, n in version_counts:
            version_names[name] = version_names.get(name, 0) + n * count


def per_bucket(stamps, width: float) -> list:
    """``(bucket, count)`` for every ``width``-second bucket (a whole
    number of seconds) the non-decreasing ``stamps`` touch, ascending:
    one bisection per bucket instead of one division per stamp."""
    out = []
    start, end = 0, len(stamps)
    while start < end:
        bucket = int(stamps[start] // width)
        stop = bisect.bisect_left(stamps, (bucket + 1) * width, start)
        out.append((bucket, stop - start))
        start = stop
    return out


def distinct(items):
    """``[item, count]`` per distinct *object* in ``items``, in
    first-occurrence order.  By identity, not equality: lane entries
    are memoized per payload, so a repeated payload is a repeated
    object and nothing needs to hash its contents."""
    counts: dict = {}
    for item in items:
        counts.setdefault(id(item), [item, 0])[1] += 1
    return counts.values()


def add_counts(target: dict, other: dict) -> None:
    """Add ``other``'s counts into ``target``, new keys in ``other``'s order."""
    for key, count in other.items():
        target[key] = target.get(key, 0) + count


def _type_name(packet_type: PacketType) -> str:
    return packet_type.name.lower().replace("_", "-")


class Sessionizer:
    """Streaming per-source sessionizer for one traffic class.

    Feed time-ordered packets with :meth:`add` (the rich reference
    walker) or one source's lane entries at a time with :meth:`add_run`
    (the fast lane); closed sessions are collected in :attr:`closed`.
    Call :meth:`flush` at end of stream.
    An ``on_run`` listener sees a batch source by source, so the monitor
    orders its alerts by crossing time, then victim, then vector.
    """

    def __init__(
        self,
        traffic_class: str,
        timeout: float = DEFAULT_TIMEOUT,
        on_run: Optional[Callable[[Session, tuple], None]] = None,
    ) -> None:
        if timeout <= 0:
            raise ValueError("session timeout must be positive")
        self.traffic_class = traffic_class
        self.timeout = timeout
        #: called with the session and a piece's stamps just before the
        #: piece lands (the monitor's flood detector).  Must not mutate.
        self.on_run = on_run
        self.closed: list = []
        self._open: dict[int, Session] = {}
        self.source_count = 0
        self._seen_sources: set = set()

    def add(self, classified: ClassifiedPacket) -> None:
        packet = classified.packet
        source = packet.src
        session = self._open.get(source)
        if session is not None and packet.timestamp - session.last_ts > self.timeout:
            self._close(session)
            session = None
        if session is None:
            session = self._begin(source, packet.timestamp)
        session.add(classified)

    def add_run(self, source: int, stamps, dsts, ports, lengths, deltas) -> None:
        """One source's lane entries of one batch — columns in stream
        order, ``stamps`` non-decreasing — with :meth:`add`'s rule: the
        run is cut at every gap above the timeout, the gap from the open
        session's ``last_ts`` included, and each piece lands in its
        session as one :meth:`Session.apply_run`, ``on_run`` called just
        before (hence the monitor's alert order: crossing time, victim,
        vector).
        """
        timeout = self.timeout
        bounds = [0, len(stamps)]
        if stamps[-1] - stamps[0] > timeout:
            bounds[1:1] = [
                index
                for index, gap in enumerate(map(sub, stamps[1:], stamps), 1)
                if gap > timeout
            ]
        columns = (stamps, dsts, ports, lengths, deltas)
        for start, stop in zip(bounds, bounds[1:]):
            piece = columns if len(bounds) == 2 else [c[start:stop] for c in columns]
            session = self._open.get(source)
            if session is not None and stamps[start] - session.last_ts > timeout:
                self._close(session)
                session = None
            if session is None:
                session = self._begin(source, stamps[start])
            if self.on_run is not None:
                self.on_run(session, piece[0])
            session.apply_run(*piece)

    def _begin(self, source: int, timestamp: float) -> Session:
        if source not in self._seen_sources:
            self._seen_sources.add(source)
            self.source_count += 1
        session = self._open[source] = Session(
            source=source,
            traffic_class=self.traffic_class,
            first_ts=timestamp,
            last_ts=timestamp,
            **({} if keeps_detail(self.traffic_class) else _STAND_INS),
        )
        return session

    def _close(self, session: Session) -> None:
        del self._open[session.source]
        self.closed.append(session)

    def flush(self) -> None:
        """Close every open session (end of measurement window)."""
        for session in list(self._open.values()):
            self._close(session)

    def expire(self, watermark: float) -> list:
        """Close sessions idle past the timeout at an event-time watermark.

        Streaming entry point.  On a time-ordered stream this closes
        exactly the sessions :meth:`add` would later close by its gap
        rule (or :meth:`flush` at EOF) with identical contents: a
        session only expires once ``watermark - last_ts > timeout``,
        and any later packet from the same source necessarily has
        ``timestamp >= watermark``, hence a gap above the timeout too.
        Returns the sessions closed by this call.
        """
        expired = [
            session
            for session in self._open.values()
            if watermark - session.last_ts > self.timeout
        ]
        for session in expired:
            self._close(session)
        return expired

    def open_sessions(self) -> list:
        """Snapshot of the currently open sessions."""
        return list(self._open.values())

    @property
    def open_count(self) -> int:
        return len(self._open)

    def evict_closed(self) -> int:
        """Bounded-memory entry point: drop closed-session records.

        Counters survive; the seen-source dedup set shrinks to the
        currently open sources, so a source returning after going fully
        idle is counted again — the documented approximation of the
        streaming monitor's bounded mode.  Returns the number of
        dropped sessions.
        """
        dropped = len(self.closed)
        self.closed.clear()
        self._seen_sources.intersection_update(self._open)
        return dropped

    def sort_closed(self) -> None:
        """Put closed sessions into canonical (first_ts, source) order.

        Within one source session starts strictly increase, so the key
        is total and the order is independent of how the stream was
        partitioned — serial and merged runs agree bit for bit.
        """
        self.closed.sort(key=lambda s: (s.first_ts, s.source))


def _clone_session(session: Session) -> Session:
    """A deep-enough copy for joining fragments: fresh sets and dicts
    (a read-only stand-in copies as itself)."""
    fresh = {name: getattr(session, name).copy() for name in _STAND_INS}
    return replace(session, minute_slots=dict(session.minute_slots), **fresh)


def _absorb_session(target: Session, other: Session) -> None:
    """Fold a later (or overlapping) fragment into ``target`` in place."""
    target.first_ts = min(target.first_ts, other.first_ts)
    target.last_ts = max(target.last_ts, other.last_ts)
    target.packet_count += other.packet_count
    target.byte_count += other.byte_count
    target.retry_packets += other.retry_packets
    add_counts(target.minute_slots, other.minute_slots)
    if keeps_detail(target.traffic_class):  # else both hold the stand-ins
        target.dst_ips |= other.dst_ips
        target.dst_ports |= other.dst_ports
        target.scids |= other.scids
        add_counts(target.message_types, other.message_types)
        add_counts(target.version_names, other.version_names)


def chain_merge_sessions(sessions: Iterable[Session], timeout: float) -> list:
    """Re-join session fragments from the parts of a partitioned capture.

    A part — a ``--workers`` worker's generation units, or any other
    split such as by destination — sees only a sub-sequence of a source's
    packets, and the same source appears in several parts.  Every
    fragment still has internal gaps <= ``timeout``,
    which means no union-stream session boundary can fall strictly
    inside a fragment's ``[first_ts, last_ts]`` span: a boundary is a
    gap > ``timeout`` in the union, and any such gap is at least as
    large in every sub-sequence that brackets it.  Sorting a source's
    fragments by ``first_ts`` and joining whenever
    ``next.first_ts - current.last_ts <= timeout`` therefore rebuilds
    exactly the sessions a serial run over the union stream produces;
    the per-session statistics are sums/unions, so the rebuilt
    :class:`Session` objects compare equal to the serial ones
    (``tests/test_parallel.py`` pins this bit for bit).

    Returns new sessions in canonical ``(first_ts, source)`` order;
    the inputs are not mutated.
    """
    groups: dict = {}
    for session in sessions:
        groups.setdefault((session.source, session.traffic_class), []).append(
            session
        )
    merged: list = []
    for fragments in groups.values():
        fragments.sort(key=lambda s: (s.first_ts, s.last_ts))
        current = _clone_session(fragments[0])
        for fragment in fragments[1:]:
            if fragment.first_ts - current.last_ts <= timeout:
                _absorb_session(current, fragment)
            else:
                merged.append(current)
                current = _clone_session(fragment)
        merged.append(current)
    merged.sort(key=lambda s: (s.first_ts, s.source))
    return merged


class TimeoutSweep:
    """Figure 4: number of sessions as a function of the timeout.

    The session count for timeout T is ``sources + |{gaps > T}|``, and
    ``sources`` is the lower bound reached at timeout = infinity.  Every
    consumer sweeps whole minutes, so per source the sweep keeps a packet
    count and its *runs* — ``[first, last]`` of each chain of gaps of at
    most :attr:`RESOLUTION` — and a long gap is ``next.first -
    previous.last``, the same subtraction a per-gap walk takes:
    O(sources + long gaps), not O(packets).  Runs are timestamps, so
    partial sweeps of any partition of one stream merge exactly
    (:meth:`merge`); and all of it is per source, so sources identified
    later (research scanners) can be excluded without a second pass.
    """

    #: the smallest timeout :meth:`sessions_at` answers for.
    RESOLUTION = MINUTE

    def __init__(self) -> None:
        self._runs: dict[int, list] = {}
        self._packets: dict[int, int] = {}
        self._excluded: set = set()
        self._sorted: Optional[list] = None
        self.packet_count = 0

    def observe(self, source: int, timestamp: float) -> None:
        self.observe_run(source, (timestamp,))

    def observe_run(self, source: int, stamps: tuple) -> None:
        """One source's next timestamps, in stream order and
        non-decreasing among themselves (the step from the source's
        previous observation may go either way)."""
        if source in self._excluded:
            return
        runs = self._runs.get(source)
        if runs is None:
            runs = self._runs[source] = [[stamps[0], stamps[0]]]
        self._packets[source] = self._packets.get(source, 0) + len(stamps)
        self.packet_count += len(stamps)
        current = runs[-1]
        resolution = self.RESOLUTION
        if stamps[0] - current[1] > resolution or stamps[-1] - stamps[0] > resolution:
            previous = (current[1],) + stamps
            for index, gap in enumerate(map(sub, stamps, previous)):
                if gap > resolution:
                    current[1] = previous[index]
                    current = [stamps[index], stamps[index]]
                    runs.append(current)
                    self._sorted = None
        current[1] = stamps[-1]

    def exclude_sources(self, sources) -> None:
        """Drop sources (e.g. research scanners) from the sweep, with
        everything kept for them; their later observations never count."""
        self._excluded.update(sources)
        for source in self._excluded & self._runs.keys():
            del self._runs[source]
            self.packet_count -= self._packets.pop(source)
        self._sorted = None

    def merge(self, other: "TimeoutSweep") -> None:
        """Fold the sweep of another part of the same stream into this
        one: a ``--workers`` part or any other sub-sequence, such as a
        destination tile.  A source only ``other`` saw takes copies of
        its runs as they are (in stream order, which sorting would
        change for an unordered capture); for a source both saw, the
        runs of both sides are sorted by ``first`` and neighbours joined
        while ``next.first - current.last <= RESOLUTION`` — the rule and
        the exactness argument of :func:`chain_merge_sessions`: a gap
        above the resolution in the whole time-ordered stream is at
        least as wide in every part, so no part's run straddles it.
        ``other`` is left untouched and shares nothing with the result."""
        if self._excluded or other._excluded:
            raise ValueError("merge partial sweeps before excluding sources")
        resolution = self.RESOLUTION
        for source, theirs in other._runs.items():
            runs = [list(run) for run in theirs]
            mine = self._runs.get(source)
            if mine is not None:
                joined = []
                for run in sorted(mine + runs):
                    if joined and run[0] - joined[-1][1] <= resolution:
                        joined[-1][1] = max(joined[-1][1], run[1])
                    else:
                        joined.append(run)
                runs = joined
            self._runs[source] = runs
            self._packets[source] = self._packets.get(source, 0) + other._packets[source]
        self.packet_count += other.packet_count
        self._sorted = None

    @property
    def source_count(self) -> int:
        return len(self._runs)

    def sessions_at(self, timeout: float) -> int:
        """Session count under the given timeout (seconds, at least
        :attr:`RESOLUTION`)."""
        if timeout < self.RESOLUTION:
            raise ValueError(
                f"the sweep counts gaps up to {self.RESOLUTION:.0f} s without "
                f"keeping them; it cannot answer for a {timeout} s timeout"
            )
        if self._sorted is None:
            self._sorted = sorted(
                following[0] - run[1]
                for runs in self._runs.values()
                for run, following in zip(runs, runs[1:])
            )
        index = bisect.bisect_right(self._sorted, timeout)
        return self.source_count + len(self._sorted) - index

    def sweep(self, timeouts_minutes: Iterable[float]) -> list:
        """(timeout_minutes, session_count) series for Figure 4."""
        return [
            (minutes, self.sessions_at(minutes * MINUTE))
            for minutes in timeouts_minutes
        ]

    def knee_minutes(
        self, candidates: Iterable[float] = tuple(range(1, 61)), threshold: float = 0.02
    ) -> float:
        """Smallest timeout where the marginal session reduction per
        extra minute drops below ``threshold`` of the remaining excess
        over the infinity floor — the paper's ~5 minute knee."""
        series = self.sweep(candidates)
        floor = self.source_count
        for (m1, s1), (_m2, s2) in zip(series, series[1:]):
            excess = s1 - floor
            if excess <= 0:
                return m1
            if (s1 - s2) / excess < threshold:
                return m1
        return series[-1][0]
