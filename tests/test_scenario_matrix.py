"""The scenario equivalence matrix: every registered scenario, the
full four-way battery.

Auto-discovers :data:`repro.telescope.presets.SCENARIOS` — the four
IBR classes in isolation plus every adversarial workload — and pins,
for each one:

- fast lane == the rich reference walker (``tests/oracle.py``);
- gen-lane synthesis == rich synthesis (fused
  ``process_record_batches`` feed), and ``packets()`` — the production
  packet view of the records — == ``rich_packets(scenario)``
  (``tests/reference/generator.py``) packet by packet;
- serial == ``process_scenario`` at workers 2–4 (the units split into
  parts, each run in its own process, the states merged once);
- batch == streaming-exact ``PipelineResult``s, bit for bit.

Any future scenario registered in the presets module gets this battery
for free; a scenario whose generators drift between their rich and
record twins, or whose record units do not partition cleanly (a unit
drawing from another's random stream), fails here before it ever
reaches a golden report.
"""

from types import SimpleNamespace

import pytest

from repro.telescope import Scenario
from repro.telescope.genlane import wire_items
from repro.telescope.presets import SCENARIOS, get_scenario, scenario_names
from tests.oracle import assert_identical, make_pipeline, monitor_events, rich_result, run
from tests.reference.generator import rich_packets

@pytest.fixture(scope="module", params=scenario_names())
def case(request):
    """One registered scenario: its capture and the fast-lane reference.

    Module-scoped per param, so the (expensive) generation and the
    reference analysis run once per scenario, not once per test.
    """
    name = request.param
    preset = get_scenario(name)
    config = preset.config()
    scenario = Scenario(config)
    packets = list(rich_packets(scenario))
    reference = run(scenario, packets)
    return SimpleNamespace(
        name=name,
        preset=preset,
        config=config,
        scenario=scenario,
        packets=packets,
        reference=reference,
    )


def test_registry_covers_ibr_and_adversarial():
    """The matrix's discovery surface: all four pre-existing IBR classes
    and at least five adversarial scenarios are registered."""
    names = scenario_names()
    assert len(names) == len(set(names))
    ibr = [n for n in names if not SCENARIOS[n].adversarial]
    adversarial = [n for n in names if SCENARIOS[n].adversarial]
    assert len(ibr) >= 4
    assert len(adversarial) >= 5


def test_scenario_generates_traffic(case):
    """Every registered scenario actually reaches the telescope."""
    assert case.packets, f"{case.name} produced an empty capture"
    timestamps = [p.timestamp for p in case.packets]
    assert timestamps == sorted(timestamps), f"{case.name} capture unsorted"


def test_fast_lane_vs_rich_lane(case):
    rich = rich_result(case.scenario, case.packets)
    assert_identical(case.reference, rich, case.scenario, f"{case.name}:rich")


def test_gen_lane_vs_rich_synthesis(case):
    """The generation fast lane reproduces the rich capture: the fused
    record-batch feed analyzes identically."""
    fused = make_pipeline(case.scenario).process_record_batches(
        Scenario(case.config).lane_batches()
    )
    assert_identical(case.reference, fused, case.scenario, f"{case.name}:fused")


#: what a consumer can read off a packet, however it was built
#: (``total_length`` is left out: 0 on a header-built packet until it
#: is packed, and ``wire_length`` covers it)
_SCALARS = (
    ("src", "dst", "proto", "kind", "src_port", "dst_port")
    + ("tcp_flags", "icmp_type", "icmp_code")
)


def _observable(packet) -> tuple:
    scalars = tuple(getattr(packet, slot) for slot in _SCALARS)
    # wire_length first: computed on the rich side, read off the wire
    # on the view's
    return (packet.timestamp, packet.wire_length, packet.payload, *scalars)


def test_packet_view_vs_rich_synthesis(case):
    """``Scenario.packets()`` — the packets every production consumer
    gets, a view of ``records()`` — is the rich capture packet by
    packet, and the wire bytes it parses are the rich packets'
    serialization byte for byte (TTL, IP id, seq/ack and checksums
    included)."""
    view = Scenario(case.config).packets()
    wires = wire_items(Scenario(case.config).records())
    for index, (got, (timestamp, wire), rich) in enumerate(
        zip(view, wires, case.packets, strict=True)
    ):
        assert _observable(got) == _observable(rich), f"{case.name}: packet {index}"
        assert (timestamp, bytes(wire)) == (rich.timestamp, rich.to_bytes()), (
            f"{case.name}: packet {index}"
        )


def test_serial_vs_workers(case):
    for workers in (2, 3, 4):
        pipeline = make_pipeline(case.scenario, workers=workers)
        parallel = pipeline.process_scenario(Scenario(case.config))
        assert_identical(
            case.reference,
            parallel,
            case.scenario,
            f"{case.name}:workers={workers}",
        )


def test_batch_vs_streaming_exact(case):
    from repro.stream import StreamAnalyzer
    from repro.util.batching import batched

    analyzer = StreamAnalyzer(
        registry=case.scenario.internet.registry,
        census=case.scenario.internet.census,
        greynoise=case.scenario.internet.greynoise,
    )
    monitor_events(analyzer, batched(iter(case.packets), 512))
    streamed = analyzer.result()
    assert_identical(
        case.reference, streamed, case.scenario, f"{case.name}:stream"
    )
