"""Lane equivalence: the batch fast lane is invisible in the results.

The acceptance contract of the columnar fast lane
(:mod:`repro.core.batchlane`): a run with ``fast_lane=True`` produces a
bit-identical :class:`PipelineResult` — sessions, attacks, hourly
series, malformed tallies, and the rendered report — to the rich path,
across serial and worker counts 1–4 (shared-memory ring transport),
the streaming monitor's exact mode, and a fault-injected stream
exercising the full malformed taxonomy.
"""

import dataclasses

import pytest

from repro.core import QuicsandPipeline
from repro.core.pipeline import AnalysisConfig
from repro.core.report import build_report
from repro.faults import FaultInjector, FaultSpec
from repro.telescope import Scenario, ScenarioConfig
from repro.util.timeutil import HOUR

SCENARIO_KW = dict(seed=11, duration=HOUR, research_sample=1 / 2048)
FAULT_SPEC = "bitflip=0.03,byteflip=0.02,truncate=0.02,zero=0.01,garbage=0.04,duplicate=0.02,drop=0.02,reorder=0.02"
FAULT_SEED = 4242

#: result fields compared by value; these three hold internal helper
#: objects without value equality, and everything they influence is
#: covered by the compared fields and the rendered report.
_IDENTITY_FIELDS = {"config", "timeout_sweep", "quic_detector", "common_detector"}


@pytest.fixture(scope="module")
def scenario():
    return Scenario(ScenarioConfig(**SCENARIO_KW))


@pytest.fixture(scope="module")
def packets(scenario):
    return list(scenario.packets())


@pytest.fixture(scope="module")
def faulted_packets():
    injector = FaultInjector(FaultSpec.parse(FAULT_SPEC), FAULT_SEED)
    clean = Scenario(ScenarioConfig(**SCENARIO_KW)).packets()
    return list(injector.wrap(clean))


def make_pipeline(scenario, **config_kw):
    return QuicsandPipeline(
        registry=scenario.internet.registry,
        census=scenario.internet.census,
        greynoise=scenario.internet.greynoise,
        config=AnalysisConfig(**config_kw),
    )


def run(scenario, packets, **config_kw):
    return make_pipeline(scenario, **config_kw).process(iter(packets))


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


def test_fast_vs_rich_serial(scenario, packets):
    rich = run(scenario, packets, fast_lane=False)
    fast = run(scenario, packets, fast_lane=True)
    assert_identical(rich, fast, scenario, "serial")
    assert not any(
        key.startswith("dissect-cache-") for key in fast.class_counts
    )


def test_fast_lane_across_worker_counts(scenario, packets):
    """Rich serial == fast lane at workers 1–4 (workers > 1 ride the
    shared-memory ring transport)."""
    rich = run(scenario, packets, fast_lane=False)
    for workers in (1, 2, 3, 4):
        fast = run(scenario, packets, fast_lane=True, workers=workers)
        assert_identical(rich, fast, scenario, f"workers={workers}")


def test_rich_tuple_transport_unchanged(scenario, packets):
    """--no-fast-lane with workers keeps the legacy tuple transport and
    still matches the rich serial run."""
    rich = run(scenario, packets, fast_lane=False)
    tuple_parallel = run(scenario, packets, fast_lane=False, workers=2)
    assert_identical(rich, tuple_parallel, scenario, "tuple-transport")


def test_fast_vs_rich_streaming_exact(scenario, packets):
    from repro.stream import StreamAnalyzer
    from repro.util.batching import batched

    results = {}
    for fast_lane in (False, True):
        analyzer = StreamAnalyzer(
            registry=scenario.internet.registry,
            census=scenario.internet.census,
            greynoise=scenario.internet.greynoise,
            config=AnalysisConfig(fast_lane=fast_lane),
        )
        for _ in analyzer.events(batched(iter(packets), 512)):
            pass
        results[fast_lane] = analyzer.result()
    assert_identical(results[False], results[True], scenario, "streaming")


def test_fast_vs_rich_under_faults(scenario, faulted_packets):
    """The malformed taxonomy — slugs and tallies — survives the lane,
    serially and through the ring transport."""
    rich = run(scenario, faulted_packets, fast_lane=False)
    assert rich.malformed_counts, "fault mix produced no malformed input"
    fast = run(scenario, faulted_packets, fast_lane=True)
    assert_identical(rich, fast, scenario, "faults-serial")
    fast_parallel = run(
        scenario, faulted_packets, fast_lane=True, workers=2
    )
    assert_identical(rich, fast_parallel, scenario, "faults-workers=2")
