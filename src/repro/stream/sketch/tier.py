"""The sketch tier: constant-memory flood detection for the monitor.

:class:`SketchTier` is the third :class:`~repro.stream.analyzer.
StreamAnalyzer` mode's engine: a sink of the same observations the
exact/bounded modes' :class:`~repro.core.pipeline.PartialState`
applies (classified once, by :class:`~repro.core.batchlane.BatchLane`'s
adapters — the tier itself contains no classification).  It keeps **no
sessions and no per-source dicts** — every update lands in
a fixed-size probabilistic structure:

- :class:`~repro.stream.sketch.countmin.CountMinSketch` ×2 — per-source
  QUIC packet and byte tallies (the exact mode's
  ``quic_source_packets``, without the dict);
- :class:`~repro.stream.sketch.spacesaving.SpaceSaving` per backscatter
  vector — heavy-hitter victims.  Each monitored victim carries a tiny
  :class:`FloodEpisode` replicating the sessionizer's gap-split rule,
  so Moore-threshold detection runs on the space-saving **lower
  bound**: an alert fires only when the victim *provably* crossed the
  thresholds, never on inherited sketch error;
- :class:`~repro.stream.sketch.hll.HyperLogLog` ×2 — distinct QUIC
  sources and distinct backscatter victims.

While a flood victim stays monitored (capacity permitting — floods are
by construction the heavy hitters), its episode count, minute-slot
maximum, and gap splits match the exact sessionizer packet for packet,
which is why sketch-mode alerts reproduce exact-mode alerts on
telescope workloads (``tests/test_stream_sketch.py`` checks exactly
that on five scenario seeds).

The results are the per-packet ones, the work is not: a batch's
backscatter lands once per (stretch, vector, victim) — one space-saving
update, then the episode rule over the bucket's timestamps — and an
HLL estimate costs O(1) (:mod:`~repro.stream.sketch.hll`).  A
**stretch** closes before an *evicting* packet (which lands alone) and
before a *gap-splitting* one, so every flood end falls on a stretch's
first packet, when every other flood's ``end`` is current.

Total memory is ``O(width * depth + 2**precision + capacity)`` —
independent of source cardinality; ``memory_bytes()`` reports the real
figure and ``tests/test_stream_sketch.py`` asserts it constant in
source count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro import obs
from repro.core.classify import PacketClass
from repro.core.dos import DosThresholds
from repro.core.sessions import DEFAULT_TIMEOUT
from repro.stream.sketch.countmin import CountMinSketch
from repro.stream.sketch.hll import HyperLogLog
from repro.stream.sketch.spacesaving import SpaceSaving
from repro.util.rng import derive_seed
from repro.util.timeutil import HOUR, MINUTE

VECTORS = ("quic", "tcp", "icmp")

# Registry families of the sketch tier (see docs/METRICS.md).  Like
# every repro.obs surface these publish at batch boundaries — the
# analyzer calls publish_metrics() after each batch — never per packet.
_M_UPDATES = obs.counter(
    "repro_sketch_updates_total",
    "packets applied to each structure",
    labels=("structure",),
)
_M_EVICTIONS = obs.counter(
    "repro_sketch_evictions_total",
    "space-saving heavy-hitter displacements, per vector",
    labels=("vector",),
)
_M_HEAVY = obs.gauge(
    "repro_sketch_heavy_entries",
    "monitored heavy-hitter victims, per vector",
    labels=("vector",),
)
_M_MEMORY = obs.gauge(
    "repro_sketch_memory_bytes",
    "bytes held by the sketch tally structures, per structure",
    labels=("structure",),
)
_M_DISTINCT = obs.gauge(
    "repro_sketch_distinct_estimate",
    "HyperLogLog distinct-cardinality estimate, per entity",
    labels=("entity",),
)

#: rough per-source cost of the exact mode's dict tallies (a dict slot
#: plus a boxed int) — used only for the status line's "what would
#: exact cost" comparison, not for any accuracy claim.
EXACT_TALLY_BYTES_PER_SOURCE = 120


@dataclass(slots=True)
class FloodEpisode:
    """Per-monitored-victim flood state — the sketch-tier stand-in for
    a backscatter session (same gap-split rule, minute-slot max, and
    threshold snapshot; ~5 numbers instead of a Session)."""

    first_ts: float
    last_ts: float
    #: space-saving lower bound just before the episode's first packet;
    #: the episode's packet count is ``lower_bound_now - base``.
    base: int
    minute: int
    minute_count: int = 1
    max_minute: int = 1
    alerted: bool = False
    #: the LiveFlood the analyzer registered at alert time (its ``end``
    #: is kept fresh so online correlation sees the episode's true span).
    flood: object = None


class SketchTier:
    """Fixed-memory per-packet tallies + lower-bound flood detection."""

    def __init__(
        self,
        *,
        width: int = 2048,
        depth: int = 4,
        capacity: int = 512,
        precision: int = 12,
        seed: int = 20210401,
        thresholds: Optional[DosThresholds] = None,
        timeout: float = DEFAULT_TIMEOUT,
        on_alert: Optional[Callable] = None,
        on_ended: Optional[Callable] = None,
    ) -> None:
        self.width = width
        self.depth = depth
        self.capacity = capacity
        self.precision = precision
        self.seed = seed
        self.thresholds = thresholds or DosThresholds()
        self.timeout = timeout
        #: on_alert(vector, victim, start, crossed_at, packets, max_pps)
        #: -> optional LiveFlood to keep fresh; on_ended(vector, victim,
        #: start, end, packets, max_pps).  Wired by the analyzer; both
        #: optional so the tier runs standalone in tests.
        self.on_alert = on_alert
        self.on_ended = on_ended
        self.packet_counts = CountMinSketch(
            width, depth, derive_seed(seed, "cms-packets")
        )
        self.byte_counts = CountMinSketch(
            width, depth, derive_seed(seed, "cms-bytes")
        )
        self.sources = HyperLogLog(precision, derive_seed(seed, "hll-sources"))
        self.victims = HyperLogLog(precision, derive_seed(seed, "hll-victims"))
        self.heavy = {vector: SpaceSaving(capacity) for vector in VECTORS}
        self._episodes: dict = {vector: {} for vector in VECTORS}
        self.hourly_requests: dict = {}
        self.hourly_responses: dict = {}
        self._published: dict = {}

    # -- the batch kernel: every state update ------------------------------

    def apply(self, observations) -> None:
        """Apply time-ordered observations exactly as per-packet updates
        would, paying per distinct source, per run and per (stretch,
        victim) instead.  The tuple is the one
        :class:`~repro.core.batchlane.BatchLane`'s adapters emit; the
        tier reads kind, source, timestamp and (QUIC only) wire length.
        Reductions, all in locals of this call: each source's count-min
        cells are hashed once; consecutive QUIC observations of one
        source fold into one conservative update by their sum (updates
        to *different* keys may share a cell and do not commute, so
        runs keep stream order); an HLL key already seen only counts;
        backscatter buffers per (vector, victim) in first-appearance
        order and lands per stretch (:meth:`_land`).  Space-saving
        updates to monitored keys commute, so a stretch closes only
        before (a) an *evicting* packet — unmonitored victim, table full
        counting this stretch's joiners — which lands alone, and (b) a
        *gap-splitting* packet, whose flood end the correlator checks
        against every partner's current end.  State, callbacks and
        their arguments are independent of batch boundaries."""
        request_cls = PacketClass.QUIC_REQUEST
        response_cls = PacketClass.QUIC_RESPONSE
        tcp_cls = PacketClass.TCP_BACKSCATTER
        packet_counts = self.packet_counts
        byte_counts = self.byte_counts
        sources = self.sources
        victims = self.victims
        heavy = self.heavy
        episodes = self._episodes
        timeout = self.timeout
        hourly_requests = self.hourly_requests
        hourly_responses = self.hourly_responses
        cells: dict = {}
        seen_victims: set = set()
        #: vector -> victim -> ([timestamps], [observation indices])
        stretch: dict = {vector: {} for vector in VECTORS}
        #: per vector, victims that can still join without an eviction
        room: dict = {}

        def land() -> None:
            self._land(stretch)
            for vector, summary in heavy.items():
                room[vector] = summary.capacity - len(summary)

        land()  # nothing buffered yet: sizes the room

        def fold(source: int, packets: int, wire_bytes: int) -> None:
            if source not in cells:
                cells[source] = packet_counts.cells(source), byte_counts.cells(source)
                sources.add(source, packets)
            else:
                sources.updates += packets
            packet_cells, byte_cells = cells[source]
            packet_counts.update_cells(packet_cells, packets, packets)
            byte_counts.update_cells(byte_cells, wire_bytes, packets)

        run_source = None
        run_packets = run_bytes = 0
        for index, (kind, source, timestamp, _, _, wire_length, _) in enumerate(
            observations
        ):
            if kind is request_cls or kind is response_cls:
                if source != run_source:
                    if run_packets:
                        fold(run_source, run_packets, run_bytes)
                    run_source = source
                    run_packets = run_bytes = 0
                run_packets += 1
                run_bytes += wire_length
                hour = int(timestamp // HOUR)
                if kind is request_cls:
                    hourly_requests[hour] = hourly_requests.get(hour, 0) + 1
                    continue
                hourly_responses[hour] = hourly_responses.get(hour, 0) + 1
                vector = "quic"
            else:
                vector = "tcp" if kind is tcp_cls else "icmp"
            if source in seen_victims:
                victims.updates += 1
            else:
                seen_victims.add(source)
                victims.add(source)
            buckets = stretch[vector]
            bucket = buckets.get(source)
            if bucket is not None:
                if timestamp - bucket[0][-1] <= timeout:
                    bucket[0].append(timestamp)
                    bucket[1].append(index)
                    continue
                land()  # (b), against a packet of this stretch
            elif source in heavy[vector]:
                episode = episodes[vector].get(source)
                if episode is not None and timestamp - episode.last_ts > timeout:
                    land()  # (b), against a landed episode
            elif room[vector] > 0:
                room[vector] -= 1
            else:
                land()  # (a): the evicting packet lands alone
                buckets[source] = ([timestamp], [index])
                land()
                continue
            buckets[source] = ([timestamp], [index])
        if run_packets:
            fold(run_source, run_packets, run_bytes)
        self._land(stretch)

    def _land(self, stretch: dict) -> None:
        """Apply one stretch's buckets and empty them: per (vector,
        victim) one space-saving update, then the sessionizer's episode
        rule (gap split, minute-slot max, Moore thresholds on the lower
        bound) over the bucket's timestamps, the lower bound stepping one
        per packet as the per-packet updates would have left it.  Alerts
        and ends replay in packet order; each alerted flood's ``end`` is
        then set once, to its last packet."""
        thresholds = self.thresholds
        timeout = self.timeout
        fired: list = []  # (index, episode or None for an end, arguments)
        live: list = []
        for vector, buckets in stretch.items():
            summary = self.heavy[vector]
            episodes = self._episodes[vector]
            for source, (stamps, indices) in buckets.items():
                count, error, displaced = summary.update(source, len(stamps))
                if displaced is not None:
                    dead = episodes.pop(displaced, None)
                    if dead is not None and dead.alerted:
                        lower = summary.lower_bound(displaced)
                        ended = self._close(vector, displaced, dead, lower)
                        fired.append((indices[0], None, ended))
                lower = count - error - len(stamps)
                episode = episodes.get(source)
                for timestamp, index in zip(stamps, indices):
                    lower += 1
                    if episode is None or timestamp - episode.last_ts > timeout:
                        # the sessionizer's gap-split rule: same victim, new flood
                        if episode is not None and episode.alerted:
                            ended = self._close(vector, source, episode, lower)
                            fired.append((index, None, ended))
                        episode = episodes[source] = FloodEpisode(
                            timestamp, timestamp, lower - 1, int(timestamp // MINUTE)
                        )
                        continue
                    episode.last_ts = timestamp
                    minute = int(timestamp // MINUTE)
                    if minute == episode.minute:
                        episode.minute_count += 1
                        if episode.minute_count > episode.max_minute:
                            episode.max_minute = episode.minute_count
                    else:
                        episode.minute = minute
                        episode.minute_count = 1
                    if episode.alerted:
                        continue
                    packets = lower - episode.base
                    if (
                        packets > thresholds.min_packets
                        and timestamp - episode.first_ts > thresholds.min_duration
                        and episode.max_minute / MINUTE > thresholds.min_max_pps
                    ):
                        episode.alerted = True
                        alert = (vector, source, episode.first_ts, timestamp)
                        alert += (packets, episode.max_minute / MINUTE)
                        fired.append((index, episode, alert))
                if episode.alerted:
                    live.append(episode)
            buckets.clear()
        fired.sort(key=lambda event: event[0])
        for _, episode, arguments in fired:
            if episode is None:
                if self.on_ended is not None:
                    self.on_ended(*arguments)
            elif self.on_alert is not None:
                episode.flood = self.on_alert(*arguments)
        for episode in live:
            if episode.flood is not None:
                episode.flood.end = episode.last_ts

    @staticmethod
    def _close(vector: str, source: int, episode, lower: int) -> tuple:
        """Finalize an alerted episode's flood ``end``; returns the
        ``on_ended`` arguments, its packets counted off ``lower``."""
        first, last = episode.first_ts, episode.last_ts
        if episode.flood is not None:
            episode.flood.end = last
        packets = max(0, lower - episode.base)
        return vector, source, first, last, packets, episode.max_minute / MINUTE

    # -- watermark-driven lifecycle ----------------------------------------

    def sweep(self, watermark: float) -> None:
        """Close episodes idle past the timeout — the same watermark
        rule the sessionizer's ``expire`` applies to sessions."""
        timeout = self.timeout
        for vector in VECTORS:
            episodes = self._episodes[vector]
            expired = [
                source
                for source, episode in episodes.items()
                if watermark - episode.last_ts > timeout
            ]
            for source in expired:
                episode = episodes.pop(source)
                if episode.alerted:
                    lower = self.heavy[vector].lower_bound(source)
                    ended = self._close(vector, source, episode, lower)
                    if self.on_ended is not None:
                        self.on_ended(*ended)

    def flush(self) -> None:
        """End of stream: close every remaining episode."""
        self.sweep(float("inf"))

    # -- telemetry ---------------------------------------------------------

    def episode_count(self) -> int:
        return sum(len(episodes) for episodes in self._episodes.values())

    def heavy_entries(self) -> int:
        return sum(len(summary) for summary in self.heavy.values())

    def structure_memory_bytes(self) -> int:
        """Bytes in the fixed tally structures alone — a hard ceiling
        set at construction time, independent of source cardinality."""
        total = self.packet_counts.memory_bytes()
        total += self.byte_counts.memory_bytes()
        total += self.sources.memory_bytes()
        total += self.victims.memory_bytes()
        for summary in self.heavy.values():
            total += summary.memory_bytes()
        return total

    def memory_bytes(self) -> int:
        """Actual bytes in the tally structures (episodes included) —
        plateaus once the space-saving tables fill, regardless of how
        many distinct sources the stream carries."""
        # episodes: a slotted dataclass of ~8 scalars per monitored key
        return self.structure_memory_bytes() + self.episode_count() * 120

    def exact_memory_estimate(self) -> int:
        """What the exact mode's per-source dicts would cost for the
        HLL-estimated source cardinality (status-line comparison)."""
        return int(self.sources.estimate()) * EXACT_TALLY_BYTES_PER_SOURCE

    def publish_metrics(self) -> None:
        """Fold tier tallies into the registry (batch boundary only)."""
        if not obs.enabled():
            return
        published = self._published
        updates = {
            "countmin-packets": self.packet_counts.updates,
            "countmin-bytes": self.byte_counts.updates,
            "spacesaving": sum(
                summary.total for summary in self.heavy.values()
            ),
            "hll-sources": self.sources.updates,
            "hll-victims": self.victims.updates,
        }
        for structure, value in updates.items():
            delta = value - published.get(("updates", structure), 0)
            if delta:
                _M_UPDATES.inc(delta, structure=structure)
                published[("updates", structure)] = value
        for vector, summary in self.heavy.items():
            delta = summary.evictions - published.get(("evictions", vector), 0)
            if delta:
                _M_EVICTIONS.inc(delta, vector=vector)
                published[("evictions", vector)] = summary.evictions
            _M_HEAVY.set(len(summary), vector=vector)
        _M_MEMORY.set(
            self.packet_counts.memory_bytes() + self.byte_counts.memory_bytes(),
            structure="countmin",
        )
        _M_MEMORY.set(
            sum(summary.memory_bytes() for summary in self.heavy.values()),
            structure="spacesaving",
        )
        _M_MEMORY.set(
            self.sources.memory_bytes() + self.victims.memory_bytes(),
            structure="hll",
        )
        _M_DISTINCT.set(int(self.sources.estimate()), entity="source")
        _M_DISTINCT.set(int(self.victims.estimate()), entity="victim")

    def __getstate__(self):
        state = dict(self.__dict__)
        state["on_alert"] = None  # analyzer-bound callbacks don't travel
        state["on_ended"] = None
        return state
