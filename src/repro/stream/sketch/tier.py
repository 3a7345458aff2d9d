"""The sketch tier: constant-memory flood detection for the monitor.

:class:`SketchTier` is the third :class:`~repro.stream.analyzer.
StreamAnalyzer` mode's engine: a sink of the same observations the
exact/bounded modes' :class:`~repro.core.pipeline.PartialState`
applies (classified once, by :class:`~repro.core.batchlane.BatchLane`'s
adapters — the tier itself contains no classification).  It keeps **no
sessions and no per-source dicts** — every per-packet update lands in
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
telescope workloads (``benchmarks/bench_sketch_accuracy.py`` measures
the precision/recall of exactly that).

Total memory is ``O(width * depth + 2**precision + capacity)`` —
independent of source cardinality; ``memory_bytes()`` reports the real
figure and the accuracy bench asserts it constant in source count.
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
        #: optional so the tier runs standalone in tests and benches.
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

    # -- feeds: classified elsewhere, applied here ---------------------------

    def consume_lane(self, batch: list, lane) -> None:
        """Fast lane, standalone: the lane classifies the batch, the
        tier applies it.  (A caller that also wants the malformed
        tallies or feeds a second sink calls
        :meth:`BatchLane.observe_packets` itself — the analyzer and the
        federation vantage do.)"""
        self.apply(lane.observe_packets(batch, {}))

    # -- the batch kernel: every state update ------------------------------

    def apply(self, observations) -> None:
        """Apply time-ordered observations exactly as per-packet updates
        would, paying per distinct source and per run instead.  The
        tuple is the one :class:`~repro.core.batchlane.BatchLane`'s
        adapters emit; the tier reads kind, source, timestamp and (QUIC
        only) wire length.  Three reductions, all in locals of this
        call: each source's count-min cells are hashed once; consecutive QUIC observations of one
        source fold into one conservative update by their sum (nothing
        touched the cells in between); an HLL key already seen cannot
        raise a register again, so it only counts.  Updates to
        *different* keys may share a cell and do not commute: runs keep
        stream order, so the state is independent of batch boundaries."""
        request_cls = PacketClass.QUIC_REQUEST
        response_cls = PacketClass.QUIC_RESPONSE
        tcp_cls = PacketClass.TCP_BACKSCATTER
        packet_counts = self.packet_counts
        byte_counts = self.byte_counts
        sources = self.sources
        victims = self.victims
        hourly_requests = self.hourly_requests
        hourly_responses = self.hourly_responses
        cells: dict = {}
        seen_victims: set = set()

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
        for kind, source, timestamp, _, _, wire_length, _ in observations:
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
            self._backscatter(vector, source, timestamp)
        if run_packets:
            fold(run_source, run_packets, run_bytes)

    def _backscatter(self, vector: str, source: int, timestamp: float) -> None:
        """One backscatter packet's heavy-hitter + episode update (per
        packet by nature: the episode needs every timestamp)."""
        count, error, displaced = self.heavy[vector].update(source)
        episodes = self._episodes[vector]
        if displaced is not None:
            dead = episodes.pop(displaced, None)
            if dead is not None and dead.alerted:
                self._end_episode(vector, displaced, dead)
        lower = count - error
        episode = episodes.get(source)
        if episode is None or timestamp - episode.last_ts > self.timeout:
            # the sessionizer's gap-split rule: same victim, new flood
            if episode is not None and episode.alerted:
                self._end_episode(vector, source, episode)
            episodes[source] = FloodEpisode(
                first_ts=timestamp,
                last_ts=timestamp,
                base=lower - 1,
                minute=int(timestamp // MINUTE),
            )
            return
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
            if episode.flood is not None:
                episode.flood.end = timestamp
            return
        packets = lower - episode.base
        thresholds = self.thresholds
        if (
            packets > thresholds.min_packets
            and timestamp - episode.first_ts > thresholds.min_duration
            and episode.max_minute / MINUTE > thresholds.min_max_pps
        ):
            episode.alerted = True
            if self.on_alert is not None:
                episode.flood = self.on_alert(
                    vector,
                    source,
                    episode.first_ts,
                    timestamp,
                    packets,
                    episode.max_minute / MINUTE,
                )

    def _end_episode(self, vector: str, source: int, episode) -> None:
        if episode.flood is not None:
            episode.flood.end = episode.last_ts
        if self.on_ended is not None:
            lower = self.heavy[vector].lower_bound(source)
            self.on_ended(
                vector,
                source,
                episode.first_ts,
                episode.last_ts,
                max(0, lower - episode.base),
                episode.max_minute / MINUTE,
            )

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
                    self._end_episode(vector, source, episode)

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
