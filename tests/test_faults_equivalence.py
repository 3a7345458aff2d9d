"""Fault injection is deterministic and analysis-path invariant.

Three contracts:

1. **No-op safety** — with faults disabled the injector is the
   identity, and the pinned golden report stays byte-identical (the
   robustness layer costs nothing on clean streams).
2. **Determinism** — a given ``(FaultSpec, seed)`` pair always yields
   the same faulted stream, and a different seed yields a different
   one.
3. **Path equivalence** — under a fixed fault seed, batch and
   streaming-exact runs produce identical ``PipelineResult`` contents,
   including identical malformed-input tallies (the ``malformed:*``
   class counts); and a faulted packet is the same whether its input
   was constructor-built or capture-parsed.
"""

import pytest

from repro.core import AnalysisConfig, QuicsandPipeline
from repro.core.report import build_report
from repro.faults import FaultInjector, FaultSpec
from repro.stream import StreamAnalyzer
from repro.telescope import Scenario, ScenarioConfig
from repro.util.batching import batched
from repro.util.timeutil import HOUR
from tests.oracle import monitor_events
from tests.reference.generator import rich_packets

FAULT_SPEC = FaultSpec(
    bitflip=0.03,
    byteflip=0.02,
    truncate=0.02,
    zero=0.01,
    garbage=0.04,
    duplicate=0.02,
    drop=0.02,
    reorder=0.02,
)
FAULT_SEED = 4242


def make_scenario(seed=11):
    return Scenario(
        ScenarioConfig(seed=seed, duration=1 * HOUR, research_sample=1 / 2048)
    )


def correlation(scenario):
    return dict(
        registry=scenario.internet.registry,
        census=scenario.internet.census,
        greynoise=scenario.internet.greynoise,
    )


def faulted_packets(spec=FAULT_SPEC, seed=FAULT_SEED):
    # scenario generators are stateful: a fresh Scenario per
    # materialization keeps the clean stream reproducible.
    injector = FaultInjector(spec, seed)
    return list(injector.wrap(make_scenario().packets())), injector


@pytest.fixture(scope="module")
def scenario():
    return make_scenario()


@pytest.fixture(scope="module")
def packets():
    faulted, _ = faulted_packets()
    return faulted


def run_pipeline(scenario, packets):
    pipeline = QuicsandPipeline(**correlation(scenario), config=AnalysisConfig())
    return pipeline.process(iter(packets))


def run_stream(scenario, packets, batch_size=256):
    analyzer = StreamAnalyzer(**correlation(scenario), config=AnalysisConfig())
    monitor_events(analyzer, batched(iter(packets), batch_size))
    return analyzer.result()


# -- no-op safety ------------------------------------------------------------


def test_disabled_spec_is_identity():
    clean = list(make_scenario().packets())
    wrapped = list(
        FaultInjector(FaultSpec(), 1).wrap(make_scenario().packets())
    )
    assert wrapped == clean
    assert FaultSpec.parse("none").enabled() is False
    assert FaultSpec().render() == "none"


def test_disabled_faults_keep_golden_report_identical():
    """`--faults none` must not perturb the pinned report: same
    scenario as tests/test_report_golden.py, wrapped in a disabled
    injector, byte-compared against the same golden file."""
    from tests.test_report_golden import GOLDEN

    scenario = Scenario(
        ScenarioConfig(seed=11, duration=2 * HOUR, research_sample=1 / 2048)
    )
    pipeline = QuicsandPipeline(**correlation(scenario))
    injector = FaultInjector(FaultSpec.parse("none"), seed=999)
    result = pipeline.process(injector.wrap(scenario.packets()))
    text = build_report(result, research_weight=scenario.truth.research_weight)
    assert text == GOLDEN.read_text()


# -- determinism -------------------------------------------------------------


def test_same_seed_same_faulted_stream(packets):
    replay, injector = faulted_packets()
    assert replay == packets
    assert any(injector.stats.values())


def test_different_seed_different_stream(packets):
    other, _ = faulted_packets(seed=FAULT_SEED + 1)
    assert other != packets


def test_faulted_stream_stays_time_ordered(packets):
    timestamps = [p.timestamp for p in packets]
    assert timestamps == sorted(timestamps)


def test_stats_track_applied_faults():
    _, injector = faulted_packets()
    stats = injector.stats
    for kind in ("bitflip", "garbage", "duplicate", "drop", "reorder"):
        assert stats[kind] > 0, f"{kind} never fired on an hour-long stream"
    assert "seed=4242" in injector.summary()


# -- path equivalence under faults -------------------------------------------


def test_serial_parallel_streaming_identical_under_faults(scenario, packets):
    serial = run_pipeline(scenario, packets)
    results = {"streaming": run_stream(scenario, packets)}
    assert serial.malformed_counts, "fault scenario produced no malformed input"
    weight = scenario.truth.research_weight
    golden_report = build_report(serial, research_weight=weight)
    for label, other in results.items():
        assert serial.total_packets == other.total_packets, label
        assert serial.request_sessions == other.request_sessions, label
        assert serial.response_sessions == other.response_sessions, label
        assert serial.tcp_sessions == other.tcp_sessions, label
        assert serial.icmp_sessions == other.icmp_sessions, label
        assert serial.quic_attacks == other.quic_attacks, label
        assert serial.common_attacks == other.common_attacks, label
        assert serial.hourly_requests == other.hourly_requests, label
        assert serial.hourly_responses == other.hourly_responses, label
        assert serial.research_sources == other.research_sources, label
        # identical malformed tallies, reason by reason
        assert serial.malformed_counts == other.malformed_counts, label
        assert serial.class_counts == other.class_counts, label
        assert golden_report == build_report(
            other, research_weight=weight
        ), label


def test_faulted_length_does_not_depend_on_packet_source():
    """A fault that shortens the payload yields the same packet whether
    its input was built from header objects (``total_length`` unset) or
    parsed off the wire (``total_length`` = the original length), so
    ``report --faults X`` and ``simulate | analyze --faults X`` feed the
    detectors the same byte counts — and it leaves its input alone."""
    spec = FaultSpec.parse("truncate=0.2,zero=0.1")
    config = ScenarioConfig(seed=11, duration=HOUR / 2, research_sample=1 / 2048)
    sources = {
        "rich": list(rich_packets(Scenario(config))),
        "view": list(Scenario(config).packets()),
    }
    lengths = {name: [p.total_length for p in source] for name, source in sources.items()}
    faulted = {
        name: list(FaultInjector(spec, 7).wrap(iter(source)))
        for name, source in sources.items()
    }
    # neither kind adds or drops, so input and output pair up by index
    assert len(faulted["rich"]) == len(faulted["view"]) == len(sources["view"])

    def observed(packets):
        return [(p.timestamp, p.payload, p.wire_length) for p in packets]

    assert observed(faulted["rich"]) == observed(faulted["view"])
    transport_len = (0, 8, 20, 8)  # by CapturedPacket.kind
    shortened = 0
    for name, source in sources.items():
        # faulting wrote no new length into its input
        assert [p.total_length for p in source] == lengths[name]
        for before, packet in zip(source, faulted[name]):
            if len(packet.payload) == len(before.payload):
                continue
            shortened += 1
            assert packet is not before and packet.total_length == 0
            expected = 20 + transport_len[packet.kind] + len(packet.payload)
            assert packet.wire_length == expected
    assert shortened > 200


def test_malformed_tally_matches_rejected_class(scenario, packets):
    result = run_pipeline(scenario, packets)
    assert (
        sum(result.malformed_counts.values())
        == result.class_counts["non-quic-udp443"]
        == result.dissection_failures
    )


def test_interrupt_shortens_stream():
    clean = list(make_scenario().packets())
    cut, injector = faulted_packets(spec=FaultSpec(interrupt=0.001), seed=7)
    assert injector.stats["interrupt"] == 1
    assert len(cut) < len(clean)
    assert cut == clean[: len(cut)]
