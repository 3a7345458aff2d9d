"""The rich reference walker, driven from the test side.

``PartialState.consume`` + ``TrafficClassifier`` (per-packet
``ClassifiedPacket``/``Dissection`` objects into ``Sessionizer.add``)
is the implementation the fast lane is checked against.  Nothing under
``src/repro`` calls it — there is no flag that ships it — so the lane,
generation and matrix suites reach it through :func:`rich_result`, and
compare with :func:`assert_identical`.  :func:`monitor_events` drives
the online monitor over a whole feed the same way, and
:func:`pcap_bytes` spells out the libpcap layout that
``repro.net.pcap.write_records`` is checked against.
"""

import dataclasses
import struct

from repro.core import QuicsandPipeline
from repro.core.classify import TrafficClassifier
from repro.core.pipeline import AnalysisConfig, PartialState
from repro.core.report import build_report
from repro.util.batching import BATCH_SIZE, batched

#: result fields holding helper objects without value equality;
#: everything they influence is covered by the compared fields, the
#: sweep comparison and the rendered report.
_IDENTITY_FIELDS = {"config", "timeout_sweep", "quic_detector", "common_detector"}


def state_facts(state: PartialState) -> dict:
    """Everything ``state`` holds once closed and canonicalized, as
    plain values ``==`` compares: the fields themselves, the
    canonicalized dicts as item lists (order is part of the contract),
    and the sessionizers and sweep — objects without value equality —
    opened up."""
    state.close()
    state.canonicalize()
    facts = {
        field.name: getattr(state, field.name)
        for field in dataclasses.fields(state)
        if field.name not in ("sessionizers", "sweep")
    }
    for name in (
        "malformed_counts", "quic_source_packets", "hourly_requests",
        "hourly_responses",
    ):
        facts[name] = list(facts[name].items())
    facts["per_source_hourly"] = [
        (source, list(hours.items()))
        for source, hours in state.per_source_hourly.items()
    ]
    facts["sessions"] = {
        kind: (s.closed, s.source_count, s._seen_sources)
        for kind, s in state.sessionizers.items()
    }
    facts["sweep"] = {
        name: value
        for name, value in vars(state.sweep).items()
        if name != "_sorted"  # a cache of the kept gaps
    }
    return facts


def make_pipeline(scenario, **config_kw):
    return QuicsandPipeline(
        registry=scenario.internet.registry,
        census=scenario.internet.census,
        greynoise=scenario.internet.greynoise,
        config=AnalysisConfig(**config_kw),
    )


def run(scenario, packets, **config_kw):
    """Analyze ``packets`` the way users do: ``QuicsandPipeline.process``."""
    return make_pipeline(scenario, **config_kw).process(iter(packets))


def rich_result(scenario, packets, **config_kw):
    """Analyze ``packets`` through the reference walker."""
    pipeline = make_pipeline(scenario, **config_kw)
    config = pipeline.config
    state = PartialState.initial(config)
    classifier = TrafficClassifier(dissect_payloads=config.dissect_payloads)
    for batch in batched(iter(packets), BATCH_SIZE):
        state.consume(batch, classifier)
    state.record_classifier(classifier)
    state.close()
    return pipeline.finalize_state(state)


def assert_identical(reference, other, scenario, label):
    for field in dataclasses.fields(reference):
        if field.name in _IDENTITY_FIELDS:
            continue
        assert getattr(reference, field.name) == getattr(
            other, field.name
        ), (label, field.name)
    assert reference.timeout_sweep.sweep(range(1, 61)) == other.timeout_sweep.sweep(
        range(1, 61)
    ), label
    weight = scenario.truth.research_weight
    assert build_report(reference, research_weight=weight) == build_report(
        other, research_weight=weight
    ), label


def monitor_events(analyzer, feed) -> list:
    """Every event of ``analyzer`` over a batch feed, in firing order,
    the stream finished when the feed ends."""
    events = []
    for batch in feed:
        events.extend(analyzer.process_batch(batch))
    return events + analyzer.finish()


def pcap_bytes(packets) -> bytes:
    """``packets`` in the classic libpcap layout, packed field by field:
    the global header (microsecond magic, version 2.4, LINKTYPE_RAW),
    then per packet a record header and its wire bytes.  A timestamp
    whose fraction rounds to 1e6 µs carries into the seconds field."""
    out = [struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 101)]
    for packet in packets:
        data = packet.to_bytes()
        seconds = int(packet.timestamp)
        micros = round((packet.timestamp - seconds) * 1e6)
        if micros >= 1_000_000:
            seconds += 1
            micros -= 1_000_000
        out.append(struct.pack("<IIII", seconds, micros, len(data), len(data)))
        out.append(data)
    return b"".join(out)
