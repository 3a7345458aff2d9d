"""Tests for burst pre-screening over telescope time series."""

import pytest

from repro.core import AnalysisConfig, QuicsandPipeline
from tests.reference.bursts import Burst, BurstDetector, burstiness, detect_bursts
from repro.telescope import Scenario, ScenarioConfig
from repro.util.timeutil import HOUR


def test_flat_series_no_bursts():
    assert detect_bursts({i: 10 for i in range(50)}) == []


def test_single_spike_flagged():
    series = {i: 10 for i in range(50)}
    series[30] = 200
    bursts = detect_bursts(series)
    assert [b.bucket for b in bursts] == [30]
    assert bursts[0].excess_sigmas > 3


def test_gaps_count_as_zero():
    series = {0: 10, 1: 10, 2: 10, 3: 10, 20: 300}  # silent stretch then spike
    bursts = detect_bursts(series)
    assert 20 in [b.bucket for b in bursts]


def test_sustained_shift_absorbed():
    """A level shift fires at first, then becomes the new baseline."""
    series = {i: 10 for i in range(20)}
    series.update({i: 100 for i in range(20, 60)})
    bursts = detect_bursts(series)
    buckets = [b.bucket for b in bursts]
    assert 20 in buckets
    assert all(b < 30 for b in buckets)  # absorbed within a few buckets


def test_small_counts_suppressed():
    series = {i: 0 for i in range(30)}
    series[15] = 4  # below min_count
    assert detect_bursts(series, min_count=5.0) == []


def test_warmup_suppresses_first_buckets():
    detector = BurstDetector(warmup=3)
    assert detector.update(0, 1000.0) is None  # no baseline yet


def test_detector_rejects_bad_parameters():
    with pytest.raises(ValueError):
        BurstDetector(alpha=0.0)
    with pytest.raises(ValueError):
        BurstDetector(threshold_sigmas=0)


def test_empty_series():
    assert detect_bursts({}) == []
    assert burstiness({}) == 0.0


def test_burstiness_orders_series():
    stable = {i: 100 + (i % 3) for i in range(48)}
    erratic = {i: (500 if i % 7 == 0 else 5) for i in range(48)}
    assert burstiness(erratic) > burstiness(stable)
    assert burstiness({0: 0, 1: 0}) == 0.0


def test_responses_more_erratic_than_requests_on_scenario():
    """The Figure 3 contrast, quantified: response burstiness exceeds
    request burstiness, and flagged response bursts line up with hours
    that contain detected floods."""
    scenario = Scenario(
        ScenarioConfig(seed=21, duration=12 * HOUR, research_sample=1 / 2048)
    )
    pipeline = QuicsandPipeline(
        registry=scenario.internet.registry,
        census=scenario.internet.census,
        config=AnalysisConfig(retry_probe_count=0),
    )
    result = pipeline.process(scenario.packets())
    assert burstiness(result.hourly_responses) > burstiness(result.hourly_requests)

    bursts = detect_bursts(result.hourly_responses, threshold_sigmas=2.0)
    if bursts:  # when the screen fires, it must point at real floods
        attack_hours = set()
        for attack in result.quic_attacks:
            for hour in range(int(attack.start // HOUR), int(attack.end // HOUR) + 1):
                attack_hours.add(hour)
        flagged = {b.bucket for b in bursts}
        assert flagged & attack_hours
