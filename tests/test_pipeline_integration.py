"""Integration tests: scenario generation through the full pipeline.

These exercise the complete loop the paper's toolchain ran — synthetic
telescope capture in, detected attacks and correlations out — and check
detector output against the scenario's ground truth.  The window is
kept small (hours) so the suite stays fast; the benches run the
paper-scale windows.
"""

import pytest

from repro.telescope import Scenario, ScenarioConfig
from repro.telescope.attacks import AttackPlanConfig
from repro.core import AnalysisConfig, QuicsandPipeline
from repro.core.dos import DosDetector, DosThresholds
from repro.internet.asn import NetworkType
from repro.util.timeutil import HOUR


@pytest.fixture(scope="module")
def scenario():
    config = ScenarioConfig(
        duration=6 * HOUR,
        research_sample=1.0 / 512,
        attacks=AttackPlanConfig(common_floods_per_hour=4.0),
    )
    return Scenario(config)


@pytest.fixture(scope="module")
def result(scenario):
    pipeline = QuicsandPipeline(
        registry=scenario.internet.registry,
        census=scenario.internet.census,
        greynoise=scenario.internet.greynoise,
    )
    return pipeline.process(scenario.packets())


def test_scenario_is_deterministic():
    config = ScenarioConfig(duration=1 * HOUR, research_sample=1.0 / 2048)
    a = [p.timestamp for p in Scenario(config).packets()]
    b = [p.timestamp for p in Scenario(config).packets()]
    assert a == b and len(a) > 100


def test_research_scanners_identified(result, scenario):
    assert result.research_sources <= set(scenario.truth.research_sources)
    assert len(result.research_sources) >= 1
    assert result.research_packets > 0


def test_request_share_in_paper_range(result):
    # paper: 15% requests / 85% responses in sanitized traffic
    assert 0.05 < result.request_share < 0.35


def test_sessions_are_single_direction(result):
    request_sources = {s.source for s in result.request_sessions}
    response_sources = {s.source for s in result.response_sessions}
    assert not request_sources & response_sources


def test_detection_rate_near_paper(result):
    # paper: 11% of response sessions classified as attacks
    assert 0.03 < result.quic_detector.detection_rate < 0.35


def test_detected_attacks_hit_true_victims(result, scenario):
    truth_victims = {f.victim_ip for f in scenario.plan.quic_floods}
    for attack in result.quic_attacks:
        assert attack.victim_ip in truth_victims


def test_most_planned_attacks_detected(result, scenario):
    planned = len(scenario.plan.quic_floods)
    detected = len(result.quic_attacks)
    assert detected >= 0.6 * planned


def test_attack_durations_plausible(result):
    for attack in result.quic_attacks:
        assert attack.duration > 60.0
        assert attack.packet_count > 25
        assert attack.max_pps > 0.5


def test_request_sessions_from_eyeballs(result):
    counts = result.request_network_types
    eyeball = counts.get(NetworkType.EYEBALL, 0)
    assert eyeball / sum(counts.values()) > 0.9


def test_response_sessions_from_content(result):
    counts = result.response_network_types
    content = counts.get(NetworkType.CONTENT, 0)
    assert content / sum(counts.values()) > 0.6


def test_victims_are_known_quic_servers(result):
    # paper: 98% of attacks target known QUIC servers
    assert result.victim_analysis.known_server_share > 0.85


def test_provider_shares(result):
    google = result.victim_analysis.provider_share("Google")
    facebook = result.victim_analysis.provider_share("Facebook")
    assert google > facebook
    assert google + facebook > 0.6


def test_message_types_initial_third(result):
    shares = result.message_type_shares()
    assert 0.2 < shares.get("initial", 0) < 0.45
    assert shares.get("handshake", 0) > shares.get("initial", 0)


def test_backscatter_validity_empty_dcids(result):
    assert result.empty_dcid_share > 0.99


def test_no_retry_observed(result):
    assert result.passive_retry_packets == 0
    assert result.retry_audit is not None
    assert not result.retry_audit.retry_deployed
    assert len(result.retry_audit.probes) > 0
    assert all(p.handshake_completed for p in result.retry_audit.probes)


def test_greynoise_no_benign_request_sources(result):
    assert result.greynoise_summary["benign"] == 0


def test_request_country_mix(result):
    counts = result.request_country_counts
    assert counts, "no request sessions attributed"
    top = max(counts, key=counts.get)
    assert top in ("BD", "US")


def test_timeout_sweep_knee_near_5_minutes(result):
    sweep = result.timeout_sweep
    s1 = sweep.sessions_at(1 * 60)
    s5 = sweep.sessions_at(5 * 60)
    s30 = sweep.sessions_at(30 * 60)
    assert s1 > s5  # meaningful reduction up to 5 minutes
    assert (s5 - s30) < (s1 - s5)  # flat afterwards
    assert 2 <= sweep.knee_minutes() <= 10


def test_dissection_excludes_stray_udp(result):
    assert result.dissection_failures > 0


def test_weight_sweep_keeps_content_dominance(result, scenario):
    detected = [
        DosDetector(DosThresholds(25 * w, 60.0 * w, 0.5 * w)).detect_all(result.response_sessions)
        for w in (0.3, 1.0, 3.0)
    ]
    counts = [len(attacks) for attacks in detected]
    assert counts == sorted(counts, reverse=True)
    census = scenario.internet.census
    for attacks in detected:
        if not attacks:
            continue
        known = sum(1 for a in attacks if a.victim_ip in census)
        assert known / len(attacks) > 0.8


def test_multivector_categories_present(result):
    shares = result.multivector.category_shares()
    assert shares["concurrent"] > 0.25
    assert shares["sequential"] > 0.1


def test_pipeline_without_correlation_sources(scenario):
    """The pipeline degrades gracefully with no registry/census/greynoise."""
    pipeline = QuicsandPipeline(config=AnalysisConfig(retry_probe_count=0))
    config = ScenarioConfig(duration=1 * HOUR, research_sample=1.0 / 2048)
    result = pipeline.process(Scenario(config).packets())
    assert result.total_packets > 0
    assert result.victim_analysis.known_server_share == 0.0
    assert result.retry_audit is None
    assert result.greynoise_summary == {}
