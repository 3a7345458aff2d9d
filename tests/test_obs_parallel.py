"""Metrics under multiprocessing, and the generation memos' metrics.

Two contracts:

1. **Exactly-once merge.** In a ``workers=N`` ``process_scenario`` run
   every worker resets its (fork-inherited) registry, publishes only
   its own part's deltas, and the parent merges each snapshot once — so
   the merged pipeline counters equal the serial run's counters
   exactly.  Double counting (merging a snapshot twice, or a worker
   shipping the parent's pre-fork totals) would show up as inflated
   packet counts.

2. **Memo metrics.** One collector publishes the generation memos as
   the ``repro_template_cache_*`` family, straight from their own
   tallies, so the exported values equal each memo's ``cache_info()``.
"""

from pathlib import Path

import pytest

import repro
from repro import obs
from repro.core import AnalysisConfig, QuicsandPipeline
from repro.quic import crypto
from repro.telescope import Scenario, ScenarioConfig, scanners
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


def test_template_cache_family_reads_the_memos(metrics_on):
    """The exported ``keystream`` and ``initial`` values are the memos'
    own ``cache_info()``, and one module declares the family."""
    scenario = Scenario(
        ScenarioConfig(duration=0.5 * HOUR, research_sample=1.0 / 2048)
    )
    for _ in scenario.packets():
        pass

    snap = metrics_on.snapshot()  # runs the cache collector
    exported = {
        field: snap[f"repro_template_cache_{name}"][4]
        for field, name in (("hits", "hits_total"), ("misses", "misses_total"), ("currsize", "size"))
    }
    for cache, memo in (("keystream", crypto._keystream), ("initial", scanners._probe_datagram)):
        info = memo.cache_info()
        for field, values in exported.items():
            assert values[(cache,)] == getattr(info, field), (cache, field)
    assert exported["misses"][("initial",)] > 0

    src = Path(repro.__file__).parent
    for name in ("hits_total", "misses_total", "size"):
        family = f"repro_template_cache_{name}"
        declaring = [p for p in src.rglob("*.py") if family in p.read_text()]
        assert declaring == [src / "quic" / "crypto.py"], family
