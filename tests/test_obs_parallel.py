"""Metrics under multiprocessing and cache gating.

Two contracts:

1. **Exactly-once merge.** In a ``workers=N`` ``process_scenario`` run
   every worker resets its (fork-inherited) registry, publishes only
   its own part's deltas, and the parent merges each snapshot once — so
   the merged pipeline counters equal the serial run's counters
   exactly.  Double counting (merging a snapshot twice, or a worker
   shipping the parent's pre-fork totals) would show up as inflated
   packet counts.

2. **Cache gating.** ``REPRO_DISABLE_TEMPLATE_CACHE=1`` bypasses the
   wire-template and keystream memos, so the collector-backed
   hit counters must report zero hits.
"""

import gc

import pytest

from repro import obs
from repro.core import AnalysisConfig, QuicsandPipeline
from repro.telescope import Scenario, ScenarioConfig
from repro.util.timeutil import HOUR


CONFIG = ScenarioConfig(duration=1 * HOUR, research_sample=1.0 / 512)


@pytest.fixture(scope="module")
def scenario():
    return Scenario(CONFIG)


@pytest.fixture
def metrics_on():
    """Enable the process-wide registry for one test, zeroed both ways."""
    was = obs.enabled()
    obs.REGISTRY.reset()
    obs.enable()
    yield obs.REGISTRY
    obs.REGISTRY.reset()
    obs.set_enabled(was)


def run_pipeline(scenario, workers):
    pipeline = QuicsandPipeline(
        registry=scenario.internet.registry,
        census=scenario.internet.census,
        greynoise=scenario.internet.greynoise,
        config=AnalysisConfig(workers=workers),
    )
    return pipeline.process_scenario(Scenario(CONFIG))


def pipeline_totals(registry):
    packets = registry.get("repro_pipeline_packets_total")
    classified = registry.get("repro_pipeline_classified_total")
    sessions = registry.get("repro_pipeline_sessions_total")
    attacks = registry.get("repro_pipeline_attacks_total")
    return {
        "packets": packets.value(),
        "classified": dict(
            (labels["klass"], v) for labels, v in classified.samples()
        ),
        "sessions": dict(
            (labels["klass"], v) for labels, v in sessions.samples()
        ),
        "attacks": dict(
            (labels["vector"], v) for labels, v in attacks.samples()
        ),
    }


def test_parallel_metrics_merge_exactly_once(scenario, metrics_on):
    serial_result = run_pipeline(scenario, workers=1)
    serial = pipeline_totals(metrics_on)
    total = serial_result.total_packets

    metrics_on.reset()
    parallel_result = run_pipeline(scenario, workers=2)
    parallel = pipeline_totals(metrics_on)

    # ground truth: the analysis itself agrees
    assert parallel_result.total_packets == total > 0

    # counters merged exactly once: equal to the serial totals, which
    # equal the stream length
    assert parallel["packets"] == serial["packets"] == total
    assert parallel["classified"] == serial["classified"]
    assert parallel["sessions"] == serial["sessions"]
    assert parallel["attacks"] == serial["attacks"]
    # so does generation, drawn inside the workers
    assert metrics_on.get("repro_telescope_packets_total").value() == total

    # the part counters cover the stream exactly once too, and every
    # part reports how long it ran
    parts = metrics_on.get("repro_parallel_shard_packets_total").samples()
    assert [labels["worker"] for labels, _ in parts] == ["0", "1"]
    assert sum(v for _, v in parts) == total
    seconds = metrics_on.get("repro_parallel_part_seconds").samples()
    assert [labels["worker"] for labels, _ in seconds] == ["0", "1"]
    assert all(v > 0 for _, v in seconds)
    assert metrics_on.get("repro_parallel_workers").value() == 2
    assert metrics_on.get("repro_parallel_merge_seconds").count() == 1


def test_parallel_merge_is_deterministic(scenario, metrics_on):
    run_pipeline(scenario, workers=2)
    first = pipeline_totals(metrics_on)
    metrics_on.reset()
    run_pipeline(scenario, workers=2)
    assert pipeline_totals(metrics_on) == first


def test_disabled_template_cache_reports_zero_hits(metrics_on, monkeypatch):
    monkeypatch.setenv("REPRO_DISABLE_TEMPLATE_CACHE", "1")

    # fresh caches: the keystream memo is process-global, so clear it
    # (its CacheInfo would otherwise carry hits from earlier tests)
    from repro.quic import crypto
    from repro.telescope import backscatter, scanners

    crypto._cached_keystream.cache_clear()
    cache = scanners._INITIAL_TEMPLATES
    cache.hits = cache.misses = 0
    cache._cache.clear()
    # compiled flights live on responders: collect the dead ones first so
    # none gives its entries back while this test is counting
    gc.collect()
    backscatter._FLIGHT_TALLY.update(hits=0, misses=0, size=0)

    scenario = Scenario(
        ScenarioConfig(duration=0.5 * HOUR, research_sample=1.0 / 2048)
    )
    for _ in scenario.packets():
        pass

    snap = metrics_on.snapshot()  # runs the cache collectors
    hits = snap["repro_template_cache_hits_total"][4]
    assert all(v == 0 for v in hits.values()), hits
    # and the caches genuinely held nothing
    sizes = snap["repro_template_cache_size"][4]
    assert all(v == 0 for v in sizes.values()), sizes
