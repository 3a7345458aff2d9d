"""The end-to-end QUICsand pipeline.

One streaming pass over a telescope capture produces everything the
paper's evaluation reports:

1. classify each packet (port + dissector, Section 4.1);
2. keep hourly counters — research-vs-other for Figure 2, sanitized
   requests/responses for Figure 3;
3. feed per-class sessionizers (5-minute timeout) and the timeout
   sweep of Figure 4;
4. at finalization: identify research scanners (education-AS sources
   above a packet threshold) and remove their bias; detect floods with
   the Moore thresholds; correlate multi-vector attacks; attribute
   victims via census and PeeringDB metadata; fingerprint SCID usage;
   correlate request sources with GreyNoise; audit RETRY.

The pipeline never stores raw packets — memory is bounded by the
number of distinct sources and sessions.

The per-packet phase (steps 1–3) accumulates into a picklable
:class:`PartialState`.  Every counter it keeps is a plain sum (hourly
series, class counters) or per source (sessionizers, timeout sweep,
research candidates) and rejoinable by time, so :func:`merge_states`
rebuilds the serial state exactly from the states of *any* partition
of the time-ordered stream into sub-sequences — a scenario's
generation units (``--workers``, :mod:`repro.core.parallel`) and
destination tiles (``tests/test_parallel.py``) alike.
"""

from __future__ import annotations

import pickle
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import groupby
from operator import itemgetter
from typing import Iterable, Optional

from repro import obs
from repro.internet.activescan import ActiveScanCensus
from repro.internet.asn import AsRegistry, NetworkType
from repro.internet.greynoise import GreyNoisePlatform
from repro.util.batching import BATCH_SIZE, batched
from repro.util.rng import SeededRng
from repro.util.timeutil import HOUR
from repro.core.batchlane import BatchLane
from repro.core.classify import PacketClass, TrafficClassifier
from repro.core.dos import DosDetector, DosThresholds
from repro.core.multivector import MultiVectorAnalysis, correlate_attacks
from repro.core.retry_audit import RetryAudit, audit_retry
from repro.core.scid import fingerprint_attacks, provider_profiles
from repro.core.sessions import (
    DEFAULT_TIMEOUT,
    Sessionizer,
    TimeoutSweep,
    add_counts,
    chain_merge_sessions,
    keeps_detail,
    per_bucket,
)
from repro.core.victims import VictimAnalysis, analyze_victims, session_network_types

# -- observability ----------------------------------------------------------
#
# Publication happens at *boundaries* (per batch, per classifier fold,
# per finalization step), never per packet: the hot loop keeps plain
# ints and the metrics layer sees them in bulk, so a metrics-on run
# stays within noise of a metrics-off run.  The full catalog lives in
# docs/METRICS.md.

_M_PACKETS = obs.counter(
    "repro_pipeline_packets_total",
    "packets consumed by the per-packet phase (all classes)",
)
_M_BATCHES = obs.counter(
    "repro_pipeline_batches_total",
    "dispatch batches consumed by the per-packet phase",
)
_M_CLASS = obs.counter(
    "repro_pipeline_classified_total",
    "packets per traffic class (classifier counters, folded at stream end)",
    labels=("klass",),
)
_M_SESSIONS = obs.counter(
    "repro_pipeline_sessions_total",
    "closed sessions entering finalization, per traffic class "
    "(request sessions counted before research-scanner sanitization)",
    labels=("klass",),
)
_M_ATTACKS = obs.counter(
    "repro_pipeline_attacks_total",
    "flood events detected at finalization, per vector",
    labels=("vector",),
)
_M_RESEARCH = obs.counter(
    "repro_pipeline_research_sources_total",
    "sources identified as research scanners at finalization",
)
_M_STAGE = obs.histogram(
    "repro_pipeline_stage_seconds",
    "wall seconds per pipeline stage",
    labels=("stage",),
)
_M_DISSECT_HITS = obs.counter(
    "repro_dissect_cache_hits_total",
    "dissector memo hits (payload seen before)",
)
_M_DISSECT_MISSES = obs.counter(
    "repro_dissect_cache_misses_total",
    "dissector memo misses (payload dissected from bytes)",
)
_M_MALFORMED = obs.counter(
    "repro_malformed_packets_total",
    "UDP/443 packets rejected by the dissector, per typed reason "
    "(see MalformedReason in repro.core.dissect)",
    labels=("reason",),
)
# repro.core.parallel publishes these; registered here, they are in the
# catalog of a serial run too, which never loads that module.
_M_PART_PACKETS = obs.counter(
    "repro_parallel_shard_packets_total",
    "packets consumed per part worker",
    labels=("worker",),
)
_M_PART_SECONDS = obs.gauge(
    "repro_parallel_part_seconds",
    "wall seconds each part worker spent from start to closed state",
    labels=("worker",),
)
_M_WORKERS = obs.gauge(
    "repro_parallel_workers",
    "worker processes of the most recent partitioned run",
)
_M_MERGE = obs.histogram(
    "repro_parallel_merge_seconds",
    "wall seconds merging all part states",
)


@dataclass
class AnalysisConfig:
    """Pipeline knobs (paper defaults)."""

    session_timeout: float = DEFAULT_TIMEOUT
    thresholds: DosThresholds = field(default_factory=DosThresholds)
    #: a source is a research scanner when it sits in an education AS
    #: and exceeds this many QUIC packets.
    research_min_packets: int = 1000
    dissect_payloads: bool = True
    #: probe this many top victims in the active RETRY audit.
    retry_probe_count: int = 10
    #: worker processes for a scenario's per-packet phase (one part of
    #: its generation units each, see ``process_scenario``); 1 runs
    #: in-process.
    workers: int = 1


@dataclass
class PipelineResult:
    """Everything the report, the CSV export and the examples render."""

    window_start: float
    window_end: float
    config: AnalysisConfig

    # packet-level
    total_packets: int = 0
    class_counts: dict = field(default_factory=dict)
    research_sources: set = field(default_factory=set)
    research_packets: int = 0
    hourly_research: dict = field(default_factory=dict)
    hourly_other_quic: dict = field(default_factory=dict)
    hourly_requests: dict = field(default_factory=dict)
    hourly_responses: dict = field(default_factory=dict)
    dissection_failures: int = 0
    response_long_header_packets: int = 0
    response_empty_dcid_packets: int = 0
    passive_retry_packets: int = 0

    # session-level (sanitized: research removed)
    request_sessions: list = field(default_factory=list)
    response_sessions: list = field(default_factory=list)
    tcp_sessions: list = field(default_factory=list)
    icmp_sessions: list = field(default_factory=list)
    timeout_sweep: Optional[TimeoutSweep] = None

    # attack-level
    quic_detector: Optional[DosDetector] = None
    common_detector: Optional[DosDetector] = None
    multivector: Optional[MultiVectorAnalysis] = None
    victim_analysis: Optional[VictimAnalysis] = None
    fingerprints: list = field(default_factory=list)
    profiles: dict = field(default_factory=dict)
    retry_audit: Optional[RetryAudit] = None

    # correlation
    greynoise_summary: dict = field(default_factory=dict)
    request_country_counts: dict = field(default_factory=dict)
    request_network_types: dict = field(default_factory=dict)
    response_network_types: dict = field(default_factory=dict)

    # -- convenience -----------------------------------------------------

    @property
    def quic_attacks(self) -> list:
        return self.quic_detector.attacks if self.quic_detector else []

    @property
    def common_attacks(self) -> list:
        return self.common_detector.attacks if self.common_detector else []

    @property
    def malformed_counts(self) -> dict:
        """Typed malformed-input tallies, keyed by reason slug."""
        prefix = "malformed:"
        return {
            key[len(prefix):]: count
            for key, count in self.class_counts.items()
            if key.startswith(prefix)
        }

    @property
    def sanitized_quic_packets(self) -> int:
        return sum(self.hourly_other_quic.values())

    @property
    def request_share(self) -> float:
        """Requests among sanitized QUIC packets (paper: 15%)."""
        requests = sum(self.hourly_requests.values())
        total = requests + sum(self.hourly_responses.values())
        return requests / total if total else 0.0

    @property
    def research_share(self) -> float:
        """Research scanners among all QUIC packets (paper: 98.5%,
        subject to sweep sampling — see the scenario's research weight)."""
        total = self.research_packets + self.sanitized_quic_packets
        return self.research_packets / total if total else 0.0

    def message_type_shares(self) -> dict:
        """Initial/Handshake/... shares over response-session packets."""
        totals: dict[str, int] = {}
        for session in self.response_sessions:
            add_counts(totals, session.message_types)
        grand = sum(totals.values())
        if not grand:
            return {}
        return {name: count / grand for name, count in sorted(totals.items())}

    @property
    def empty_dcid_share(self) -> float:
        """Backscatter validity: long-header responses with DCID len 0."""
        if not self.response_long_header_packets:
            return 0.0
        return self.response_empty_dcid_packets / self.response_long_header_packets


@dataclass
class PartialState:
    """Mergeable accumulator for the per-packet streaming phase.

    One instance holds everything steps 1–3 produce for one part of
    the stream.  All state is additive or per source and rejoinable by
    time, so :func:`merge_states` over the parts of any partition into
    time-ordered sub-sequences reconstructs the serial state exactly.
    Instances are picklable: ``--workers`` processes ship them for
    merging.
    """

    window_start: Optional[float] = None
    window_end: Optional[float] = None
    total_packets: int = 0
    class_counts: dict = field(default_factory=dict)
    cache_hits: int = 0
    cache_misses: int = 0
    response_long_header_packets: int = 0
    response_empty_dcid_packets: int = 0
    passive_retry_packets: int = 0
    #: NON_QUIC_UDP443 rejects keyed by MalformedReason slug — additive,
    #: so merged parts reproduce the serial tally exactly.
    malformed_counts: dict = field(default_factory=dict)
    quic_source_packets: dict = field(default_factory=dict)
    per_source_hourly: dict = field(default_factory=dict)
    hourly_requests: dict = field(default_factory=dict)
    hourly_responses: dict = field(default_factory=dict)
    sessionizers: dict = field(default_factory=dict)
    sweep: TimeoutSweep = field(default_factory=TimeoutSweep)

    @classmethod
    def initial(cls, config: AnalysisConfig) -> "PartialState":
        timeout = config.session_timeout
        return cls(
            class_counts={packet_class: 0 for packet_class in PacketClass},
            sessionizers={
                PacketClass.QUIC_REQUEST: Sessionizer("quic-request", timeout),
                PacketClass.QUIC_RESPONSE: Sessionizer("quic-response", timeout),
                PacketClass.TCP_BACKSCATTER: Sessionizer("tcp-backscatter", timeout),
                PacketClass.ICMP_BACKSCATTER: Sessionizer("icmp-backscatter", timeout),
            },
        )

    def consume(self, packets: list, classifier: TrafficClassifier) -> None:
        """Feed one time-ordered batch through classify → dissect →
        sessionize → hourly counters → sweep observation."""
        if not packets:
            return
        if self.window_start is None:
            self.window_start = packets[0].timestamp
        self.window_end = packets[-1].timestamp
        self.total_packets += len(packets)
        classified_batch = classifier.classify_batch(packets)
        # local bindings: this loop runs once per packet
        request_cls = PacketClass.QUIC_REQUEST
        response_cls = PacketClass.QUIC_RESPONSE
        tcp_cls = PacketClass.TCP_BACKSCATTER
        icmp_cls = PacketClass.ICMP_BACKSCATTER
        nonquic_cls = PacketClass.NON_QUIC_UDP443
        malformed_counts = self.malformed_counts
        sessionizers = self.sessionizers
        request_add = sessionizers[request_cls].add
        response_add = sessionizers[response_cls].add
        sweep_observe = self.sweep.observe
        quic_source_packets = self.quic_source_packets
        per_source_hourly = self.per_source_hourly
        hourly_requests = self.hourly_requests
        hourly_responses = self.hourly_responses
        response_long = 0
        response_empty_dcid = 0
        retry_packets = 0
        for classified in classified_batch:
            cls = classified.packet_class
            if cls is request_cls or cls is response_cls:
                packet = classified.packet
                timestamp = packet.timestamp
                hour = int(timestamp // HOUR)
                source = packet.src
                quic_source_packets[source] = quic_source_packets.get(source, 0) + 1
                if cls is request_cls:
                    hours = per_source_hourly.setdefault(source, {})
                    hours[hour] = hours.get(hour, 0) + 1
                    hourly_requests[hour] = hourly_requests.get(hour, 0) + 1
                    sweep_observe(source, timestamp)
                    request_add(classified)
                else:
                    hourly_responses[hour] = hourly_responses.get(hour, 0) + 1
                    dissection = classified.dissection
                    if dissection is not None and dissection.valid:
                        if dissection.has_retry:
                            retry_packets += 1
                        if dissection.has_long_header:
                            response_long += 1
                            if dissection.all_dcids_empty:
                                response_empty_dcid += 1
                    sweep_observe(source, timestamp)
                    response_add(classified)
            elif cls is tcp_cls or cls is icmp_cls:
                sessionizers[cls].add(classified)
            elif cls is nonquic_cls:
                dissection = classified.dissection
                if dissection is None:
                    # both ports 443: rejected before dissection
                    reason = "port-conflict"
                elif dissection.reason is not None:
                    reason = dissection.reason.value
                else:
                    reason = "malformed"
                malformed_counts[reason] = malformed_counts.get(reason, 0) + 1
        self.response_long_header_packets += response_long
        self.response_empty_dcid_packets += response_empty_dcid
        self.passive_retry_packets += retry_packets
        _M_PACKETS.inc(len(packets))
        _M_BATCHES.inc()

    def consume_lane(self, packets: list, lane: BatchLane) -> None:
        """Columnar fast lane over packets: the lane classifies the
        batch (:meth:`BatchLane.observe_packets`), :meth:`apply`
        updates the state.  Bit-identical to :meth:`consume`, the
        reference walker only the equivalence suites drive
        (``tests/oracle.py``)."""
        if not packets:
            return
        self.note_batch(packets[0].timestamp, packets[-1].timestamp, len(packets))
        self.apply(lane.observe_packets(packets, self.malformed_counts))

    def consume_lane_records(self, records: list, lane: BatchLane) -> None:
        """:meth:`consume_lane` over 11-field lane records (layout on
        :meth:`BatchLane.observe_records`): the generation lane's feed."""
        if not records:
            return
        self.note_batch(records[0][0], records[-1][0], len(records))
        self.apply(lane.observe_records(records, self.malformed_counts))

    def note_batch(self, first_ts: float, last_ts: float, count: int) -> None:
        """Account one time-ordered, non-empty batch: window bounds,
        packet total, and the per-batch metrics."""
        if self.window_start is None:
            self.window_start = first_ts
        self.window_end = last_ts
        self.total_packets += count
        _M_PACKETS.inc(count)
        _M_BATCHES.inc()

    def apply(self, observations: list) -> None:
        """The fast lane's state update: hourly series, per-source
        tallies, sweep and sessions from one batch's observations (see
        :class:`BatchLane`'s adapters for the tuple).

        Every update is per source or additive, so the batch is
        bucketed by source (first-appearance order) and a bucket — some
        50 of a batch's 512 observations — lands as one
        :meth:`_apply_run`, whatever the batching — so the monitor's
        flood detector (``Sessionizer.on_run``) sees a batch source by
        source and orders its alerts by crossing time, victim, vector.
        """
        by_source = defaultdict(list)
        for row in observations:
            by_source[row[1]].append(row)
        for source, rows in by_source.items():
            # nearly always one stretch: an address rarely is in two classes
            for kind, run in groupby(rows, key=itemgetter(0)):
                self._apply_run(kind, source, *tuple(zip(*run))[2:])

    def _apply_run(self, kind, source, stamps, dsts, ports, lengths, entries) -> None:
        """One source's observations of one class, columns in stream
        order: a tally add, an hourly add per hour touched, a sweep run
        and a :meth:`Sessionizer.add_run`.  Timestamps that step back
        (a mis-ordered capture) go one by one."""
        if sorted(stamps) != list(stamps):
            for row in zip(stamps, dsts, ports, lengths, entries):
                self._apply_run(kind, source, *zip(row))  # one-element columns
            return
        if kind is PacketClass.QUIC_REQUEST or kind is PacketClass.QUIC_RESPONSE:
            self.quic_source_packets[source] = (
                self.quic_source_packets.get(source, 0) + len(stamps)
            )
            hours = per_bucket(stamps, HOUR)
            if kind is PacketClass.QUIC_REQUEST:
                series = self.hourly_requests
                mine = self.per_source_hourly.setdefault(source, {})
                for hour, count in hours:
                    mine[hour] = mine.get(hour, 0) + count
            else:
                series = self.hourly_responses
                for entry in filter(None, entries):  # flood responses rarely repeat
                    self.passive_retry_packets += entry[3]
                    self.response_long_header_packets += entry[4]
                    self.response_empty_dcid_packets += entry[4] and entry[5]
            for hour, count in hours:
                series[hour] = series.get(hour, 0) + count
            self.sweep.observe_run(source, stamps)
        if keeps_detail(kind.value):  # no other class reads the deltas
            entries = [entry and entry[2] for entry in entries]
        self.sessionizers[kind].add_run(source, stamps, dsts, ports, lengths, entries)

    def record_classifier(self, classifier: TrafficClassifier) -> None:
        """Fold the classifier's counters into the partial state.

        Called exactly once per classifier lifetime (serial stream end,
        part end, monitor ``finish()``), which also makes it the
        exactly-once publication point for the classifier-owned metrics:
        per-class packet counts and the dissector-memo hit/miss split.
        """
        for packet_class, count in classifier.counters.items():
            self.class_counts[packet_class] = (
                self.class_counts.get(packet_class, 0) + count
            )
            if count:
                _M_CLASS.inc(count, klass=packet_class.value)
        self.cache_hits += classifier.cache_hits
        self.cache_misses += classifier.cache_misses
        if classifier.cache_hits:
            _M_DISSECT_HITS.inc(classifier.cache_hits)
        if classifier.cache_misses:
            _M_DISSECT_MISSES.inc(classifier.cache_misses)
        publish = getattr(classifier, "publish_lane_metrics", None)
        if publish is not None:
            publish()

    def close(self) -> None:
        """End of stream: close every open session.

        Also the exactly-once publication point for the malformed-reason
        counters — called once per part in the serial, worker, and
        streaming paths, so the metric rides the existing
        snapshot/merge machinery without double counting.
        """
        for sessionizer in self.sessionizers.values():
            sessionizer.flush()
        if obs.enabled():
            for reason, count in self.malformed_counts.items():
                if count:
                    _M_MALFORMED.inc(count, reason=reason)

    def merge_counts(self, other: "PartialState") -> None:
        """Fold the purely additive fields of ``other`` into this one.

        Everything except the sessionizers and the timeout sweep:
        window bounds (min/max), packet/class/cache tallies, malformed
        reasons, per-source and hourly counters — the partition-agnostic
        step of :func:`merge_states`.
        """
        starts = [ts for ts in (self.window_start, other.window_start) if ts is not None]
        ends = [ts for ts in (self.window_end, other.window_end) if ts is not None]
        self.window_start = min(starts, default=None)
        self.window_end = max(ends, default=None)
        self.total_packets += other.total_packets
        add_counts(self.class_counts, other.class_counts)
        self.cache_hits += other.cache_hits
        self.cache_misses += other.cache_misses
        self.response_long_header_packets += other.response_long_header_packets
        self.response_empty_dcid_packets += other.response_empty_dcid_packets
        self.passive_retry_packets += other.passive_retry_packets
        add_counts(self.malformed_counts, other.malformed_counts)
        add_counts(self.quic_source_packets, other.quic_source_packets)
        for source, hours in other.per_source_hourly.items():
            add_counts(self.per_source_hourly.setdefault(source, {}), hours)
        add_counts(self.hourly_requests, other.hourly_requests)
        add_counts(self.hourly_responses, other.hourly_responses)

    # -- snapshot/restore -------------------------------------------------

    def snapshot_bytes(self) -> bytes:
        """The state as a self-contained pickle.

        Open sessions, the sweep, and every counter are included;
        callbacks are ``None`` by construction on pipeline-owned
        sessionizers, so the pickle always loads.  A ``--workers`` part's
        state goes back to the parent as a pickle too, so its size and
        timing approximate what handing a part over costs.
        """
        return pickle.dumps(self, protocol=pickle.HIGHEST_PROTOCOL)

    @classmethod
    def from_snapshot_bytes(cls, payload: bytes) -> "PartialState":
        """Load a state pickled by :meth:`snapshot_bytes`."""
        state = pickle.loads(payload)
        if not isinstance(state, cls):
            raise TypeError(
                f"snapshot payload is {type(state).__name__}, not {cls.__name__}"
            )
        return state

    def canonicalize(self) -> None:
        """Put all ordering-sensitive state into canonical order.

        Closed sessions sort by (first_ts, source) and every keyed dict
        is rebuilt key-sorted, so finalization — and everything it
        renders — is identical no matter how the stream was partitioned.
        """
        for sessionizer in self.sessionizers.values():
            sessionizer.sort_closed()
        self.malformed_counts = dict(sorted(self.malformed_counts.items()))
        self.quic_source_packets = dict(sorted(self.quic_source_packets.items()))
        self.per_source_hourly = {
            source: dict(sorted(hours.items()))
            for source, hours in sorted(self.per_source_hourly.items())
        }
        self.hourly_requests = dict(sorted(self.hourly_requests.items()))
        self.hourly_responses = dict(sorted(self.hourly_responses.items()))


def run_serial(stream: Iterable, config: AnalysisConfig) -> PartialState:
    """The in-process per-packet phase: the whole stream through one
    :class:`BatchLane` into one closed :class:`PartialState`."""
    state = PartialState.initial(config)
    lane = BatchLane(dissect_payloads=config.dissect_payloads)
    for batch in batched(stream, BATCH_SIZE):
        state.consume_lane(batch, lane)
    state.record_classifier(lane)
    state.close()
    return state


def run_record_batches(batches: Iterable[list], config: AnalysisConfig) -> PartialState:
    """The fused per-packet phase: batches of 11-field lane records
    (:meth:`BatchLane.observe_records`) through one :class:`BatchLane`
    into one closed :class:`PartialState` — the loop of the fused
    report and of every ``--workers`` part."""
    state = PartialState.initial(config)
    lane = BatchLane(dissect_payloads=config.dissect_payloads)
    for batch in batches:
        state.consume_lane_records(batch, lane)
    state.record_classifier(lane)
    state.close()
    return state


def _fold_sessionizers(merged: PartialState, state: PartialState) -> None:
    for packet_class, target in merged.sessionizers.items():
        source = state.sessionizers[packet_class]
        if source.timeout != target.timeout:
            raise ValueError("cannot merge sessionizers with different timeouts")
        target.closed.extend(source.closed)
        target.closed.extend(source.open_sessions())
        target._seen_sources |= source._seen_sources


def merge_states(states: Iterable[PartialState], config: AnalysisConfig) -> PartialState:
    """The serial state of a stream from the states of its parts.

    The parts may split the time-ordered stream any way at all — by
    generation unit (``--workers``), by destination tile
    (``tests/test_parallel.py``) — as long as each is a sub-sequence
    of it.  Additive counters ride
    :meth:`PartialState.merge_counts`, session fragments are rejoined by
    :func:`~repro.core.sessions.chain_merge_sessions` (exactness proof
    in its docstring) and the timeout sweeps by the same rule in
    :meth:`~repro.core.sessions.TimeoutSweep.merge`.  The inputs should
    be closed — open sessions are treated as fragments — and are not
    mutated, and each is let go before the next is pulled: only its
    session fragments are kept, for one chain merge after the last.
    """
    merged = PartialState.initial(config)
    folded = False
    for state in states:
        merged.merge_counts(state)
        merged.sweep.merge(state.sweep)
        _fold_sessionizers(merged, state)
        folded = True
        del state
    if not folded:
        raise ValueError("nothing to merge: no partial states")
    for target in merged.sessionizers.values():
        target.closed = chain_merge_sessions(target.closed, target.timeout)
        target.source_count = len(target._seen_sources)
    return merged


class QuicsandPipeline:
    """Single-pass streaming analysis of a telescope capture."""

    def __init__(
        self,
        registry: Optional[AsRegistry] = None,
        census: Optional[ActiveScanCensus] = None,
        greynoise: Optional[GreyNoisePlatform] = None,
        config: Optional[AnalysisConfig] = None,
    ) -> None:
        self.registry = registry
        self.census = census
        self.greynoise = greynoise
        self.config = config or AnalysisConfig()

    def process(self, stream: Iterable) -> PipelineResult:
        """Consume a time-ordered packet stream and analyze it.

        Always in this process, whatever ``config.workers`` says: a
        packet stream (a pcap, a fault-injected feed) can only be
        partitioned by a parent that reads every packet, and no such
        transport ever beat this loop.  Parallel runs partition a
        scenario instead (:meth:`process_scenario`).
        """
        with obs.span(_M_STAGE, stage="per-packet-serial"):
            state = run_serial(stream, self.config)
        return self._finalize(state)

    def process_record_batches(self, batches: Iterable[list]) -> PipelineResult:
        """Analyze pre-batched 11-field lane records (the fused path).

        The generate→analyze fast lane: a scenario's
        ``lane_batches()`` feed (or any other source of
        :meth:`BatchLane.observe_records` batches) goes
        straight into the per-packet phase with no wire serialization
        and no dissection-side parsing.  Identical to
        :meth:`process` over the equivalent packet stream
        (``tests/test_genlane_equivalence.py``).
        """
        with obs.span(_M_STAGE, stage="per-packet-serial"):
            state = run_record_batches(batches, self.config)
        return self._finalize(state)

    def process_scenario(self, scenario) -> PipelineResult:
        """Generate and analyze a scenario on ``config.workers`` cpus.

        One worker is :meth:`process_record_batches` over the
        scenario's ``lane_batches``.  More split the scenario's
        generation units into that many parts (``Scenario.parts``), run
        the same fused loop on each part in its own process and merge
        the closed states once (:func:`repro.core.parallel.run_parts`)
        — the serial result by construction, see :func:`merge_states`.
        """
        cfg = self.config
        if cfg.workers <= 1:
            return self.process_record_batches(scenario.lane_batches())
        from repro.core.parallel import run_parts

        with obs.span(_M_STAGE, stage="per-packet-parallel"):
            state = run_parts(scenario.parts(cfg.workers), cfg)
        return self._finalize(state)

    def finalize_state(self, state: PartialState) -> PipelineResult:
        """Run the once-per-capture steps on an externally accumulated
        state (the streaming monitor's exact mode uses this — see
        :mod:`repro.stream`)."""
        return self._finalize(state)

    def _finalize(self, state: PartialState) -> PipelineResult:
        """Run the once-per-capture steps on the (merged) state."""
        with obs.span(_M_STAGE, stage="finalize"):
            return self._finalize_timed(state)

    def _finalize_timed(self, state: PartialState) -> PipelineResult:
        state.canonicalize()
        class_counts = {
            cls.value: n for cls, n in state.class_counts.items() if n
        }
        for reason, count in state.malformed_counts.items():
            if count:
                class_counts[f"malformed:{reason}"] = count
        result = PipelineResult(
            window_start=state.window_start or 0.0,
            window_end=state.window_end or 0.0,
            config=self.config,
            total_packets=state.total_packets,
            class_counts=class_counts,
            dissection_failures=state.class_counts.get(
                PacketClass.NON_QUIC_UDP443, 0
            ),
            response_long_header_packets=state.response_long_header_packets,
            response_empty_dcid_packets=state.response_empty_dcid_packets,
            passive_retry_packets=state.passive_retry_packets,
            hourly_requests=state.hourly_requests,
            hourly_responses=state.hourly_responses,
        )
        with obs.span(_M_STAGE, stage="identify-research"):
            self._identify_research(
                result, state.quic_source_packets, state.per_source_hourly
            )
        state.sweep.exclude_sources(result.research_sources)
        result.timeout_sweep = state.sweep
        with obs.span(_M_STAGE, stage="collect-sessions"):
            self._collect_sessions(result, state.sessionizers)
        with obs.span(_M_STAGE, stage="detect-attacks"):
            self._detect_attacks(result)
        with obs.span(_M_STAGE, stage="correlate"):
            self._correlate(result)
        if obs.enabled():
            _M_RESEARCH.inc(len(result.research_sources))
        return result

    # -- finalization steps ----------------------------------------------

    def _identify_research(
        self,
        result: PipelineResult,
        quic_source_packets: dict,
        per_source_hourly: dict,
    ) -> None:
        """Education-AS heavy hitters are research scanners (Figure 2)."""
        cfg = self.config
        for source, count in quic_source_packets.items():
            if count < cfg.research_min_packets:
                continue
            if self.registry is not None:
                if self.registry.network_type_of(source) is not NetworkType.EDUCATION:
                    continue
            result.research_sources.add(source)
            result.research_packets += count
        # hourly research vs other QUIC series
        for source, hours in per_source_hourly.items():
            target = (
                result.hourly_research
                if source in result.research_sources
                else result.hourly_other_quic
            )
            add_counts(target, hours)
        add_counts(result.hourly_other_quic, result.hourly_responses)
        # sanitize the request series
        for source in result.research_sources:
            for hour, count in per_source_hourly.get(source, {}).items():
                result.hourly_requests[hour] -= count
                if result.hourly_requests[hour] <= 0:
                    del result.hourly_requests[hour]

    def _collect_sessions(self, result: PipelineResult, sessionizers: dict) -> None:
        if obs.enabled():
            for packet_class, sessionizer in sessionizers.items():
                if sessionizer.closed:
                    _M_SESSIONS.inc(
                        len(sessionizer.closed), klass=packet_class.value
                    )
        research = result.research_sources
        result.request_sessions = [
            s
            for s in sessionizers[PacketClass.QUIC_REQUEST].closed
            if s.source not in research
        ]
        result.response_sessions = sessionizers[PacketClass.QUIC_RESPONSE].closed
        result.tcp_sessions = sessionizers[PacketClass.TCP_BACKSCATTER].closed
        result.icmp_sessions = sessionizers[PacketClass.ICMP_BACKSCATTER].closed
        if self.registry is not None:
            result.request_network_types = session_network_types(
                result.request_sessions, self.registry
            )
            result.response_network_types = session_network_types(
                result.response_sessions, self.registry
            )
            for session in result.request_sessions:
                system = self.registry.lookup(session.source)
                country = system.country if system else "??"
                result.request_country_counts[country] = (
                    result.request_country_counts.get(country, 0) + 1
                )
        if self.greynoise is not None:
            result.greynoise_summary = self.greynoise.classify_sources(
                {s.source for s in result.request_sessions}
            )

    def _detect_attacks(self, result: PipelineResult) -> None:
        result.quic_detector = DosDetector(self.config.thresholds)
        result.quic_detector.detect_all(result.response_sessions)
        result.common_detector = DosDetector(self.config.thresholds)
        result.common_detector.detect_all(result.tcp_sessions)
        result.common_detector.detect_all(result.icmp_sessions)
        if obs.enabled():
            vectors: dict = {}
            for attack in result.quic_attacks + result.common_attacks:
                vectors[attack.vector] = vectors.get(attack.vector, 0) + 1
            for vector, count in vectors.items():
                _M_ATTACKS.inc(count, vector=vector)

    def _correlate(self, result: PipelineResult) -> None:
        result.multivector = correlate_attacks(
            result.quic_attacks, result.common_attacks
        )
        result.victim_analysis = analyze_victims(
            result.quic_attacks, self.census, self.registry
        )
        result.fingerprints = fingerprint_attacks(result.quic_attacks, self.census)
        result.profiles = provider_profiles(result.fingerprints)
        if self.census is not None:
            result.retry_audit = audit_retry(
                census=self.census,
                rng=SeededRng(424242),
                passive_retry_packets=result.passive_retry_packets,
                passive_quic_packets=result.sanitized_quic_packets,
                top_victims=result.victim_analysis.top_victims(
                    self.config.retry_probe_count
                ),
            )
