"""Sketch-tier detector behaviour under adversarial flood shapes.

Pulse-wave and carpet-bombing scenarios replayed through
``StreamConfig(mode="sketch")``: the constant-memory tier must keep its
alert precision/recall against the exact oracle at ≥ 0.95 even for
flood shapes the 2021 telescope never produced — many simultaneous
victims in one prefix, and episodes fragmented by super-timeout
silences.
"""

import pytest

from repro.core import AnalysisConfig
from repro.stream import StreamAnalyzer, StreamConfig
from repro.telescope import Scenario
from repro.telescope.presets import scenario_config
from repro.util.batching import batched
from tests.oracle import monitor_events

SKETCH_SCENARIOS = ("adv-pulse-wave", "adv-carpet-bomb")

MIN_PRECISION = 0.95
MIN_RECALL = 0.95


@pytest.fixture(scope="module", params=SKETCH_SCENARIOS)
def monitor(request):
    """One adversarial scenario plus its *captured* batch list —
    generation draws fresh randomness per call, so both analyzers must
    replay the identical stream."""
    scenario = Scenario(scenario_config(request.param))
    return scenario, list(batched(scenario.packets(), 512))


def run_monitor(monitor, stream_config):
    scenario, batches = monitor
    analyzer = StreamAnalyzer(
        registry=scenario.internet.registry,
        census=scenario.internet.census,
        greynoise=scenario.internet.greynoise,
        config=AnalysisConfig(),
        stream_config=stream_config,
    )
    monitor_events(analyzer, iter(batches))
    return analyzer


def alert_key(alert):
    return (alert.vector, alert.victim_ip, alert.start)


def test_sketch_alert_precision_recall_vs_exact(monitor):
    exact = run_monitor(monitor, StreamConfig())
    sketch = run_monitor(monitor, StreamConfig(mode="sketch"))

    oracle = {alert_key(a) for a in exact.alerts}
    approx = {alert_key(a) for a in sketch.alerts}
    assert oracle, "adversarial scenario raised no exact-mode alerts"

    true_positives = len(oracle & approx)
    precision = true_positives / len(approx) if approx else 0.0
    recall = true_positives / len(oracle)
    assert precision >= MIN_PRECISION, (precision, sorted(approx - oracle))
    assert recall >= MIN_RECALL, (recall, sorted(oracle - approx))


def test_pulse_wave_sketch_sees_every_pulse():
    """Episode fragmentation survives the sketch tier: each pulse is a
    separate alert against the same victim."""
    scenario = Scenario(scenario_config("adv-pulse-wave"))
    batches = list(batched(scenario.packets(), 512))
    sketch = run_monitor((scenario, batches), StreamConfig(mode="sketch"))
    model = scenario.adversarial[0]
    victim_alerts = [
        a for a in sketch.alerts if a.victim_ip == model.victim_ip
    ]
    assert len(victim_alerts) >= 2
    starts = sorted(a.start for a in victim_alerts)
    # successive alerts are separated by at least the inter-pulse gap
    for earlier, later in zip(starts, starts[1:]):
        assert later - earlier >= model.spec.pulse_gap


def test_carpet_bomb_sketch_tracks_every_victim():
    """Heavy-hitter capacity holds a full /24 of simultaneous victims."""
    scenario = Scenario(scenario_config("adv-carpet-bomb"))
    batches = list(batched(scenario.packets(), 512))
    sketch = run_monitor((scenario, batches), StreamConfig(mode="sketch"))
    model = scenario.adversarial[0]
    alerted = {a.victim_ip for a in sketch.alerts}
    assert alerted >= set(model.victim_ips)
