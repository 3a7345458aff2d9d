"""Lane equivalence: the batch fast lane is invisible in the results.

The acceptance contract of the columnar fast lane
(:mod:`repro.core.batchlane`): every production path produces a
bit-identical :class:`PipelineResult` — sessions, attacks, hourly
series, malformed tallies, and the rendered report — to the rich
reference walker (``tests/oracle.py``): the packet path, the fused
scenario path at worker counts 1–4 (``process_scenario``: generation
units split into parts, one process each), the streaming monitor's
exact mode, and a fault-injected stream exercising the full malformed
taxonomy.
"""

import pytest

from repro.faults import FaultInjector, FaultSpec
from repro.telescope import Scenario, ScenarioConfig
from repro.util.timeutil import HOUR
from tests.oracle import assert_identical, make_pipeline, monitor_events, rich_result, run

SCENARIO_KW = dict(seed=11, duration=HOUR, research_sample=1 / 2048)
FAULT_SPEC = "bitflip=0.03,byteflip=0.02,truncate=0.02,zero=0.01,garbage=0.04,duplicate=0.02,drop=0.02,reorder=0.02"
FAULT_SEED = 4242


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


def test_fast_vs_rich_serial(scenario, packets):
    rich = rich_result(scenario, packets)
    fast = run(scenario, packets)
    assert_identical(rich, fast, scenario, "serial")
    assert not any(
        key.startswith("dissect-cache-") for key in fast.class_counts
    )


def test_fast_lane_across_worker_counts(scenario, packets):
    """Rich serial == the fused lane at workers 1–4 (workers > 1 split
    the scenario's units into parts and merge the part states)."""
    rich = rich_result(scenario, packets)
    for workers in (1, 2, 3, 4):
        pipeline = make_pipeline(scenario, workers=workers)
        fast = pipeline.process_scenario(Scenario(ScenarioConfig(**SCENARIO_KW)))
        assert_identical(rich, fast, scenario, f"workers={workers}")


def test_fast_vs_rich_streaming_exact(scenario, packets):
    from repro.stream import StreamAnalyzer
    from repro.util.batching import batched

    analyzer = StreamAnalyzer(
        registry=scenario.internet.registry,
        census=scenario.internet.census,
        greynoise=scenario.internet.greynoise,
    )
    monitor_events(analyzer, batched(iter(packets), 512))
    assert_identical(
        rich_result(scenario, packets), analyzer.result(), scenario, "streaming"
    )


def test_fast_vs_rich_under_faults(scenario, faulted_packets):
    """The malformed taxonomy — slugs and tallies — survives the lane."""
    rich = rich_result(scenario, faulted_packets)
    assert rich.malformed_counts, "fault mix produced no malformed input"
    fast = run(scenario, faulted_packets)
    assert_identical(rich, fast, scenario, "faults-serial")
