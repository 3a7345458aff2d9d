"""The online telescope monitor: QUICsand analysis over an unbounded feed.

:class:`StreamAnalyzer` runs the same classify → dissect → sessionize
machinery as the batch :class:`~repro.core.pipeline.QuicsandPipeline`
(it literally accumulates the same
:class:`~repro.core.pipeline.PartialState`), with three streaming
additions:

1. **Watermark-driven session expiry** — after every batch the
   event-time watermark (the newest timestamp) advances and sessions
   idle past the timeout are closed.  On a time-ordered stream this
   closes exactly the sessions the batch sessionizer would close, with
   identical contents (see
   :meth:`repro.core.sessions.Sessionizer.expire`), which is why the
   exact mode reproduces batch results bit for bit.
2. **Incremental flood detection** — an ``on_run`` hook on the
   backscatter sessionizers checks each piece of a run before it lands
   (:meth:`~repro.core.dos.DosDetector.crossing`), so a
   :class:`~repro.stream.events.FloodAlert` names the exact packet at
   which a session crosses the Moore thresholds.  Runs land source by
   source; a batch's alerts are ordered by crossing time, ties broken
   by victim and then vector.  An :class:`~repro.stream.events.AttackEnded`
   follows when the session expires — with an online multi-vector
   category from the sliding common-flood window.
3. **Bounded memory** (``StreamConfig(mode="bounded")``) — closed
   sessions are folded into running summaries and evicted, the
   per-packet timeout sweep is disabled, and per-source tallies are
   pruned on every hour rollover down to *open* sources plus
   research-threshold heavy hitters.  Memory is then proportional to
   active sources (plus the alert history and the rolling hour window),
   not capture size; telemetry reports the live/evicted counts.
4. **Sketch mode** (``StreamConfig(mode="sketch")``) — no sessions and
   no per-source dicts at all: the lane classifies each batch exactly
   as in the other modes (same classifier tallies and metrics), but
   the observations go to the fixed-size structures of
   :mod:`repro.stream.sketch` (count-min source tallies, space-saving
   heavy-hitter victims carrying flood episodes, HyperLogLog
   cardinalities), and alerts fire when the
   space-saving *lower bound* crosses the Moore thresholds.  Memory is
   constant in source cardinality;
   ``tests/test_stream_sketch.py`` checks the alerts against the exact
   mode and pins the ceiling.

Exact mode (the default) retains the full state: after ``finish()``,
``result()`` runs the batch finalization and returns a
``PipelineResult`` identical to ``QuicsandPipeline.process`` over the
same capture — asserted in ``tests/test_stream_equivalence.py``.  The
other modes surrender ``result()`` (it raises the structured
:class:`StreamResultUnavailable` naming the alternatives) in exchange
for their memory ceilings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro import obs
from repro.core.batchlane import BatchLane
from repro.core.classify import PacketClass
from repro.core.dos import DosDetector
from repro.core.pipeline import AnalysisConfig, PartialState, PipelineResult, QuicsandPipeline
from repro.core.sessions import Session
from repro.stream.correlate import LiveFlood, OnlineCorrelator
from repro.stream.events import AttackEnded, FloodAlert, format_event_time
from repro.stream.sketch.tier import SketchTier
from repro.util.render import format_table
from repro.util.timeutil import HOUR

#: the monitor's state-retention modes, least to most compressed.
STREAM_MODES = ("exact", "bounded", "sketch")

#: hour buckets kept in the rolling hourly series (bounded/sketch).
RETAIN_HOURS = 48

_BACKSCATTER_CLASSES = (
    PacketClass.QUIC_RESPONSE,
    PacketClass.TCP_BACKSCATTER,
    PacketClass.ICMP_BACKSCATTER,
)

# The monitor's observability surface.  :class:`StreamTelemetry` stays
# as the in-process view (status lines, tests poke at its fields); the
# ``repro.obs`` metrics below are the *export* surface — updated at
# batch boundaries and on (rare) alert/eviction events, never per
# packet, and absorbed into `--metrics-out` / `repro stats` output.
_M_BATCH = obs.histogram(
    "repro_stream_batch_seconds",
    "wall seconds per monitor batch (consume + expiry + drain)",
)
_M_ALERT_LATENCY = obs.histogram(
    "repro_stream_alert_latency_seconds",
    "event-time delay from threshold crossing to alert emission",
    buckets=obs.LATENCY_BUCKETS,
)
_M_ALERTS = obs.counter(
    "repro_stream_alerts_total",
    "flood alerts fired, per vector",
    labels=("vector",),
)
_M_ENDED = obs.counter(
    "repro_stream_attacks_ended_total",
    "flood-ended events emitted, per vector",
    labels=("vector",),
)
_M_EVICTED = obs.counter(
    "repro_stream_evicted_sessions_total",
    "closed sessions evicted in bounded mode",
)
_M_PRUNED_SOURCES = obs.counter(
    "repro_stream_pruned_sources_total",
    "idle per-source tallies pruned on hour rollovers (bounded mode)",
)
_M_PRUNED_HOURS = obs.counter(
    "repro_stream_pruned_hours_total",
    "hourly buckets rolled out of the retain window (bounded mode)",
)
_M_OPEN_SESSIONS = obs.gauge(
    "repro_stream_open_sessions", "sessions currently open"
)
_M_LIVE_SOURCES = obs.gauge(
    "repro_stream_live_sources", "distinct sources with an open session"
)
_M_ACTIVE_FLOODS = obs.gauge(
    "repro_stream_active_floods", "floods past threshold and not yet ended"
)
_M_TRACKED_SOURCES = obs.gauge(
    "repro_stream_tracked_sources",
    "per-source tally map size (the bounded-memory proxy)",
)


class StreamResultUnavailable(RuntimeError):
    """``result()`` needs the full exact state, which this mode traded
    away for its memory ceiling.

    Raised with the mode and the surfaces that *are* available, so the
    message tells the caller where to go instead of dead-ending on a
    bare string.  Subclasses ``RuntimeError`` so pre-existing handlers
    keep working.
    """

    def __init__(self, mode: str, alternatives: tuple) -> None:
        self.mode = mode
        self.alternatives = tuple(alternatives)
        super().__init__(
            f"no batch result available in {mode} mode: session state was "
            "evicted as it closed; use " + " / ".join(self.alternatives)
            + " instead, or rerun with StreamConfig(mode=\"exact\")"
        )


@dataclass
class StreamConfig:
    """The online monitor's one option, its mode."""

    #: state retention: "exact" (full state, batch-identical result),
    #: "bounded" (evict closed sessions and idle sources, no per-packet
    #: timeout sweep: memory follows *active* sources, ``result()`` is
    #: surrendered) or "sketch" (constant memory —
    #: repro.stream.sketch structures).
    mode: str = "exact"

    def __post_init__(self) -> None:
        if self.mode not in STREAM_MODES:
            raise ValueError(
                f"unknown stream mode {self.mode!r}; pick one of {STREAM_MODES}"
            )


@dataclass
class StreamTelemetry:
    """The monitor's in-process counters and gauges.

    Status lines and tests read these fields directly; the exportable
    view of the same quantities lives in :mod:`repro.obs` (the
    ``repro_stream_*`` families — see ``docs/METRICS.md``), which the
    analyzer keeps in sync at batch boundaries.  New telemetry should
    be added to the registry first and mirrored here only when the
    status line needs it.
    """

    packets: int = 0
    batches: int = 0
    watermark: float = float("-inf")
    alerts: int = 0
    attacks_ended: int = 0
    evicted_sessions: int = 0
    pruned_sources: int = 0
    pruned_hours: int = 0
    live_sources: int = 0
    open_sessions: int = 0
    peak_live_sources: int = 0
    active_floods: int = 0
    #: size of the per-source tally maps — the bounded-memory proxy.
    #: In sketch mode: monitored heavy-hitter entries (the tally that
    #: replaces the maps).
    tracked_sources: int = 0
    #: corrupt pcap records skipped by a lenient feed (see
    #: ``follow_pcap(lenient=True)``); fed via record_corrupt_records.
    corrupt_records: int = 0
    #: sketch mode: actual bytes in the sketch tally structures.
    sketch_memory_bytes: int = 0
    #: sketch mode: HLL estimates of distinct QUIC sources / victims.
    distinct_sources_est: int = 0
    distinct_victims_est: int = 0


class _NullSweep:
    """Timeout-sweep stand-in for bounded mode: the sweep keeps an
    entry per source ever seen, which is what this mode evicts, so it
    is disabled rather than evicted."""

    source_count = 0
    packet_count = 0

    def observe_run(self, source: int, stamps: tuple) -> None:
        pass


class StreamAnalyzer:
    """Online QUICsand analysis with live flood alerting."""

    def __init__(
        self,
        registry=None,
        census=None,
        greynoise=None,
        config: Optional[AnalysisConfig] = None,
        stream_config: Optional[StreamConfig] = None,
    ) -> None:
        self.pipeline = QuicsandPipeline(registry, census, greynoise, config)
        self.config = self.pipeline.config
        self.stream_config = stream_config or StreamConfig()
        self.state = PartialState.initial(self.config)
        self.classifier = BatchLane(dissect_payloads=self.config.dissect_payloads)
        self.detector = DosDetector(self.config.thresholds)
        self.correlator = OnlineCorrelator()
        self.telemetry = StreamTelemetry()
        #: alert history (floods are rare — ~4/hour Internet-wide — so
        #: this stays small even on long runs).
        self.alerts: list = []
        self._pending: list = []
        self._crossings: list = []
        self._active: dict = {}
        self._cursor = {cls: 0 for cls in self.state.sessionizers}
        self._current_hour: Optional[int] = None
        self._finished = False
        self._floods_by_vector: dict = {}
        self._category_counts: dict = {}
        self._pruned_requests = 0
        self._pruned_responses = 0
        self.sketch: Optional[SketchTier] = None
        if self.stream_config.mode == "sketch":
            self.sketch = SketchTier(
                thresholds=self.config.thresholds,
                timeout=self.config.session_timeout,
                on_alert=self._on_alert,
                on_ended=self._on_ended,
            )
        else:
            for cls in _BACKSCATTER_CLASSES:
                self.state.sessionizers[cls].on_run = self._on_backscatter_run
        if self.stream_config.mode != "exact":
            self.state.sweep = _NullSweep()

    # -- streaming loop ---------------------------------------------------

    def process_batch(self, batch: list) -> list:
        """Consume one time-ordered batch; returns the events it caused."""
        if self._finished:
            raise RuntimeError("stream already finished")
        if not batch:
            return []
        with obs.span(_M_BATCH):
            if self.sketch is not None:
                # the exact state keeps the window, packet total and
                # classifier tallies; sessions and per-source dicts
                # stay empty — the tier is the sink
                self.state.note_batch(
                    batch[0].timestamp, batch[-1].timestamp, len(batch)
                )
                self.sketch.apply(
                    self.classifier.observe_packets(
                        batch, self.state.malformed_counts
                    )
                )
            else:
                self.state.consume_lane(batch, self.classifier)
                self._alert_crossings()
            telemetry = self.telemetry
            telemetry.packets += len(batch)
            telemetry.batches += 1
            if batch[-1].timestamp > telemetry.watermark:
                telemetry.watermark = batch[-1].timestamp
            if self.sketch is not None:
                self.sketch.sweep(telemetry.watermark)
            else:
                for sessionizer in self.state.sessionizers.values():
                    sessionizer.expire(telemetry.watermark)
            events = self._drain(telemetry.watermark)
            self._hour_rollover(telemetry.watermark)
            self._update_gauges()
        return events

    def finish(self) -> list:
        """End of stream (EOF / SIGINT): flush every open session and
        return the final events."""
        if self._finished:
            return []
        self._finished = True
        if self.sketch is not None:
            self.sketch.flush()
        self.state.record_classifier(self.classifier)
        self.state.close()
        events = self._drain(self.telemetry.watermark)
        self._update_gauges()
        return events

    def record_corrupt_records(self, count: int) -> None:
        """Tally corrupt pcap records a lenient feed skipped.

        The feed owns the reader, so the count arrives as deltas via
        :func:`repro.stream.feeds.follow_pcap`'s ``on_corrupt`` hook;
        the analyzer only mirrors it into telemetry (the registry
        counter is published by the feed itself).
        """
        if count:
            self.telemetry.corrupt_records += count

    def result(self) -> PipelineResult:
        """The batch-identical analysis result (exact mode only)."""
        if not self._finished:
            raise RuntimeError("call finish() before result()")
        mode = self.stream_config.mode
        if mode != "exact":
            raise StreamResultUnavailable(
                mode,
                (
                    "stream_report()",
                    "the StreamTelemetry snapshot (analyzer.telemetry)",
                    "the rolling hourly series (analyzer.state.hourly_requests, "
                    ".hourly_responses)"
                    if mode == "bounded"
                    else "the sketch estimates (analyzer.sketch: count-min "
                    "packet/byte counts, space-saving heavy hitters, "
                    "HyperLogLog cardinalities)",
                ),
            )
        return self.pipeline.finalize_state(self.state)

    # -- incremental detection hooks --------------------------------------

    # The session modes and the sketch tier report floods through the
    # same two scalar hooks — the tier calls them directly (they are its
    # on_alert/on_ended protocol), the sessionizer hooks adapt a Session.
    # An active flood is keyed (label, victim, start); the label is the
    # session's traffic class or, from the tier, the vector.

    def _on_backscatter_run(self, session: Session, stamps) -> None:
        attack = self.detector.crossing(session, stamps)
        if attack is not None:
            self._crossings.append(attack)

    def _alert_crossings(self) -> None:
        """Alert the batch's crossings by crossing time, then victim,
        then vector — once per session, even where a mis-ordered
        capture walks an alerted session back below a threshold."""
        crossings, self._crossings = self._crossings, []
        for a in sorted(crossings, key=lambda a: (a.end, a.victim_ip, a.vector)):
            if (a.session.traffic_class, a.victim_ip, a.start) not in self._active:
                self._on_alert(
                    a.vector, a.victim_ip, a.start, a.end, a.packet_count, a.max_pps, a.session
                )

    def _on_alert(
        self,
        vector: str,
        victim: int,
        start: float,
        crossed_at: float,
        packet_count: int,
        max_pps: float,
        session: Optional[Session] = None,
    ) -> LiveFlood:
        """A flood crossed the Moore thresholds: an open ``session``
        did, or the tier proved it (via the space-saving lower bound)
        for a monitored victim.  Returns the LiveFlood; without a
        session its ``end`` is what the tier keeps fresh."""
        alert = FloodAlert(
            victim_ip=victim,
            vector=vector,
            start=start,
            crossed_at=crossed_at,
            packet_count=packet_count,
            max_pps=max_pps,
        )
        self._pending.append(alert)
        self.alerts.append(alert)
        self.telemetry.alerts += 1
        _M_ALERTS.inc(vector=vector)
        if session is not None:
            label = session.traffic_class
            flood = LiveFlood(victim, vector, start, session=session)
        else:
            label = vector
            flood = LiveFlood(victim, vector, start, end=crossed_at)
        self._active[(label, victim, start)] = flood
        if vector != "quic":
            self.correlator.register_common(flood)
        return flood

    def _on_ended(
        self,
        label: str,
        victim: int,
        start: float,
        end: float,
        packet_count: int,
        max_pps: float,
    ) -> None:
        """A session or episode closed; if it was an alerted flood,
        classify it against the correlation window, tally it and emit
        :class:`AttackEnded`."""
        flood = self._active.pop((label, victim, start), None)
        if flood is None:
            return
        flood.end = end
        flood.session = None
        vector = flood.vector
        category = None
        partners: tuple = ()
        gap = None
        if vector == "quic":
            category, partners, gap = self.correlator.classify(victim, start, end)
            self._category_counts[category] = (
                self._category_counts.get(category, 0) + 1
            )
        self._floods_by_vector[vector] = self._floods_by_vector.get(vector, 0) + 1
        self.telemetry.attacks_ended += 1
        _M_ENDED.inc(vector=vector)
        self._pending.append(
            AttackEnded(
                victim_ip=victim,
                vector=vector,
                start=start,
                end=end,
                packet_count=packet_count,
                max_pps=max_pps,
                category=category,
                partner_vectors=partners,
                nearest_gap=gap,
            )
        )

    # -- draining and eviction --------------------------------------------

    def _drain(self, watermark: float) -> list:
        for cls, sessionizer in self.state.sessionizers.items():
            closed = sessionizer.closed
            cursor = self._cursor[cls]
            if len(closed) > cursor:
                for session in closed[cursor:]:
                    self._on_ended(
                        session.traffic_class,
                        session.source,
                        session.first_ts,
                        session.last_ts,
                        session.packet_count,
                        session.max_pps,
                    )
                self._cursor[cls] = len(closed)
        if self.stream_config.mode == "bounded":
            for cls, sessionizer in self.state.sessionizers.items():
                evicted = sessionizer.evict_closed()
                self.telemetry.evicted_sessions += evicted
                if evicted:
                    _M_EVICTED.inc(evicted)
                self._cursor[cls] = 0
        events = self._pending
        self._pending = []
        record_latency = obs.enabled()
        for event in events:
            event.emitted_at = watermark
            if record_latency and isinstance(event, FloodAlert):
                _M_ALERT_LATENCY.observe(max(0.0, watermark - event.crossed_at))
        return events

    def _hour_rollover(self, watermark: float) -> None:
        hour = int(watermark // HOUR)
        if hour == self._current_hour:
            return
        first = self._current_hour is None
        self._current_hour = hour
        if first:
            return
        self.correlator.prune(watermark)
        if self.stream_config.mode == "exact":
            return
        floor = hour - RETAIN_HOURS
        if self.sketch is None:
            self._evict_idle(floor)
        # roll hour buckets older than the retain window out of the
        # active mode's hourly series
        hourly_requests, hourly_responses = self._hourly_series()
        buckets = len(hourly_requests) + len(hourly_responses)
        for rolled in [h for h in hourly_requests if h < floor]:
            self._pruned_requests += hourly_requests.pop(rolled)
        for rolled in [h for h in hourly_responses if h < floor]:
            self._pruned_responses += hourly_responses.pop(rolled)
        buckets -= len(hourly_requests) + len(hourly_responses)
        if buckets:
            self.telemetry.pruned_hours += buckets
            _M_PRUNED_HOURS.inc(buckets)

    def _evict_idle(self, floor: int) -> None:
        """Bounded mode, per hour: keep tallies only for open sources
        and research-threshold heavy hitters, within the retain window."""
        state = self.state
        telemetry = self.telemetry
        open_sources: set = set()
        for sessionizer in state.sessionizers.values():
            open_sources.update(
                session.source for session in sessionizer.open_sessions()
            )
        min_packets = self.config.research_min_packets
        tallies = state.quic_source_packets
        keep = {
            source
            for source, count in tallies.items()
            if count >= min_packets or source in open_sources
        }
        dropped = len(tallies) - len(keep)
        if dropped:
            state.quic_source_packets = {
                source: count for source, count in tallies.items() if source in keep
            }
            state.per_source_hourly = {
                source: hours
                for source, hours in state.per_source_hourly.items()
                if source in keep
            }
            telemetry.pruned_sources += dropped
            _M_PRUNED_SOURCES.inc(dropped)
        for hours in state.per_source_hourly.values():
            for rolled in [h for h in hours if h < floor]:
                del hours[rolled]

    def _update_gauges(self) -> None:
        telemetry = self.telemetry
        sketch = self.sketch
        if sketch is not None:
            telemetry.open_sessions = 0
            telemetry.live_sources = sketch.episode_count()
            telemetry.tracked_sources = sketch.heavy_entries()
            telemetry.sketch_memory_bytes = sketch.memory_bytes()
            telemetry.distinct_sources_est = int(sketch.sources.estimate())
            telemetry.distinct_victims_est = int(sketch.victims.estimate())
        else:
            sessionizers = self.state.sessionizers.values()
            telemetry.open_sessions = sum(s.open_count for s in sessionizers)
            live: set = set()
            for sessionizer in sessionizers:
                live.update(s.source for s in sessionizer.open_sessions())
            telemetry.live_sources = len(live)
            telemetry.tracked_sources = len(self.state.quic_source_packets)
        if telemetry.live_sources > telemetry.peak_live_sources:
            telemetry.peak_live_sources = telemetry.live_sources
        telemetry.active_floods = len(self._active)
        if obs.enabled():
            _M_OPEN_SESSIONS.set(telemetry.open_sessions)
            _M_LIVE_SOURCES.set(telemetry.live_sources)
            _M_ACTIVE_FLOODS.set(telemetry.active_floods)
            _M_TRACKED_SOURCES.set(telemetry.tracked_sources)
            if sketch is not None:
                sketch.publish_metrics()

    # -- reporting ---------------------------------------------------------

    def _hourly_series(self):
        """The (requests, responses) hour dicts of the active mode."""
        if self.sketch is not None:
            return self.sketch.hourly_requests, self.sketch.hourly_responses
        return self.state.hourly_requests, self.state.hourly_responses

    def status_line(self) -> str:
        """One-line monitor status for the periodic watch output."""
        telemetry = self.telemetry
        watermark = (
            format_event_time(telemetry.watermark)
            if telemetry.watermark != float("-inf")
            else "-"
        )
        hour_key = int(telemetry.watermark // HOUR) if telemetry.watermark != float("-inf") else 0
        hourly_requests, hourly_responses = self._hourly_series()
        requests = hourly_requests.get(hour_key, 0)
        responses = hourly_responses.get(hour_key, 0)
        line = (
            f"[status] watermark={watermark} packets={telemetry.packets:,} "
            f"live_sources={telemetry.live_sources} "
            f"open_sessions={telemetry.open_sessions} "
            f"active_floods={telemetry.active_floods} "
            f"alerts={telemetry.alerts} "
            f"evicted={telemetry.evicted_sessions:,} "
            f"pruned_sources={telemetry.pruned_sources:,} "
            f"pruned_hours={telemetry.pruned_hours:,} "
            f"hour_req/resp={requests}/{responses}"
        )
        sketch = self.sketch
        if sketch is not None:
            exact_kib = sketch.exact_memory_estimate() / 1024
            line += (
                f" sketch[cms={sketch.width}x{sketch.depth}"
                f" topk={sketch.capacity}"
                f" hll=2^{sketch.precision}]"
                f" mem={telemetry.sketch_memory_bytes / 1024:.0f}KiB"
                f" (exact~{exact_kib:.0f}KiB)"
                f" distinct~{telemetry.distinct_sources_est:,}"
            )
        return line

    def stream_report(self) -> str:
        """Final summary of an (optionally bounded) monitoring run."""
        telemetry = self.telemetry
        state = self.state
        window = ""
        if state.window_start is not None and state.window_end is not None:
            hours = (state.window_end - state.window_start) / HOUR
            window = (
                f"{format_event_time(state.window_start)} — "
                f"{format_event_time(state.window_end)} ({hours:.1f} h)"
            )
        hourly_requests, hourly_responses = self._hourly_series()
        requests = sum(hourly_requests.values()) + self._pruned_requests
        responses = sum(hourly_responses.values()) + self._pruned_responses
        rows = [
            ["window", window or "-"],
            ["packets processed", f"{telemetry.packets:,}"],
            ["QUIC requests / responses", f"{requests:,} / {responses:,}"],
            ["flood alerts", str(telemetry.alerts)],
            ["floods ended", str(telemetry.attacks_ended)],
        ]
        for vector in ("quic", "tcp", "icmp"):
            if vector in self._floods_by_vector:
                rows.append(
                    [f"  {vector} floods", str(self._floods_by_vector[vector])]
                )
        for category in ("concurrent", "sequential", "isolated"):
            if category in self._category_counts:
                rows.append(
                    [
                        f"  quic {category} (online)",
                        str(self._category_counts[category]),
                    ]
                )
        rows += [
            ["live sources (now / peak)", f"{telemetry.live_sources} / {telemetry.peak_live_sources}"],
            ["tracked sources", str(telemetry.tracked_sources)],
            ["sessions evicted", f"{telemetry.evicted_sessions:,}"],
            ["sources pruned", f"{telemetry.pruned_sources:,}"],
        ]
        if self.sketch is not None:
            sketch = self.sketch
            rows += [
                [
                    "distinct sources (HLL est.)",
                    f"~{telemetry.distinct_sources_est:,}",
                ],
                [
                    "distinct victims (HLL est.)",
                    f"~{telemetry.distinct_victims_est:,}",
                ],
                [
                    "sketch memory",
                    f"{telemetry.sketch_memory_bytes / 1024:.0f} KiB "
                    f"(exact would need ~"
                    f"{sketch.exact_memory_estimate() / 1024:.0f} KiB)",
                ],
                [
                    "heavy-hitter evictions",
                    str(sum(s.evictions for s in sketch.heavy.values())),
                ],
            ]
        if telemetry.corrupt_records:
            rows.append(
                ["corrupt pcap records", f"{telemetry.corrupt_records:,}"]
            )
        rows.append(["correlation window", str(self.correlator.window_size)])
        mode = self.stream_config.mode
        return format_table(
            ["metric", "value"], rows, title=f"Streaming monitor summary ({mode} mode)"
        )
