"""Detector behaviour under every adversarial scenario.

The pipeline was tuned on 2021 backscatter; these tests pin what it
does when fed the workloads it was never tuned for.  Each assertion is
about *sane* classification, which sometimes means the honest answer
is "uncategorized": an HTTP/3 request flood is request-class traffic,
and request sessions are never fed to the Moore-threshold flood
detector, so zero alerts is the correct (and pinned) outcome — not a
detection gap to be papered over.
"""

import pytest

from repro.core import QuicsandPipeline
from repro.telescope import Scenario
from repro.telescope.presets import scenario_config


@pytest.fixture(scope="module")
def analyzed():
    """Lazily-computed (scenario, result) pairs, one pipeline run each."""
    cache = {}

    def get(name):
        if name not in cache:
            scenario = Scenario(scenario_config(name))
            pipeline = QuicsandPipeline(
                registry=scenario.internet.registry,
                census=scenario.internet.census,
                greynoise=scenario.internet.greynoise,
            )
            cache[name] = (scenario, pipeline.process(scenario.packets()))
        return cache[name]

    return get


def test_optimistic_ack_is_a_fat_quic_flood(analyzed):
    """Optimistic-ACK amplification reads as a QUIC response flood whose
    bytes-per-packet profile is near-MTU — far above handshake
    backscatter."""
    scenario, result = analyzed("adv-optimistic-ack")
    model = scenario.adversarial[0]
    assert len(result.quic_attacks) >= 1
    attack = result.quic_attacks[0]
    assert attack.vector == "quic"
    assert attack.victim_ip == model.victim_ip
    session = attack.session
    assert session.byte_count / session.packet_count > 1000
    # the victim is a census-known server, so the known-server share
    # the paper reports at 98 % holds here
    assert result.victim_analysis.known_server_share == 1.0


def test_h3_request_flood_is_honestly_uncategorized(analyzed):
    """A request flood at the telescope produces request sessions and
    nothing else: no flood attack, no victims — the pipeline must not
    invent a classification it has no evidence for."""
    scenario, result = analyzed("adv-h3-flood")
    model = scenario.adversarial[0]
    assert result.quic_attacks == []
    assert result.common_attacks == []
    assert result.victim_analysis.attack_count == 0
    sources = {s.source for s in result.request_sessions}
    assert sources  # the flood did land
    assert sources <= set(model.sources)


def test_h3_slowloris_sessions_are_long_and_slow(analyzed):
    """Slowloris drips stay inside the session timeout, so each source
    holds one long session at a rate far below any flood threshold."""
    scenario, result = analyzed("adv-h3-slowloris")
    model = scenario.adversarial[0]
    assert result.quic_attacks == []
    assert result.common_attacks == []
    sessions = [
        s for s in result.request_sessions if s.source in set(model.sources)
    ]
    assert len(sessions) == len(model.sources)
    for session in sessions:
        assert session.duration > 600  # held open most of the window
        assert session.max_pps < 0.5  # never flood-fast


def test_pulse_wave_fragments_into_repeat_attacks(analyzed):
    """Inter-pulse silences exceed the session timeout, so one campaign
    is (correctly, per the Moore methodology) reported as several
    floods against the same victim."""
    scenario, result = analyzed("adv-pulse-wave")
    model = scenario.adversarial[0]
    assert len(result.quic_attacks) >= 2
    assert {a.victim_ip for a in result.quic_attacks} == {model.victim_ip}
    per_victim = result.victim_analysis.attacks_per_victim
    assert per_victim[model.victim_ip] == len(result.quic_attacks)


def test_carpet_bomb_stresses_victim_aggregation(analyzed):
    """Carpet bombing inverts the paper's victim statistics: many
    victims in one prefix, one attack each, and a known-server share
    near zero instead of 98 %."""
    scenario, result = analyzed("adv-carpet-bomb")
    model = scenario.adversarial[0]
    analysis = result.victim_analysis
    assert analysis.victim_count == len(model.victim_ips)
    assert analysis.single_attack_victim_share == 1.0
    assert analysis.known_server_share < 0.5
    prefixes = {a.victim_ip & 0xFFFFFF00 for a in result.quic_attacks}
    assert len(prefixes) == 1  # all victims share the carpet-bombed /24


def test_carpet_bomb_floods_as_many_hosts_as_asked():
    # seed 44 anchors the bomb on one of the /24's lowest hosts, which
    # once cost the victim set a member
    model = Scenario(scenario_config("adv-carpet-bomb", seed=44)).adversarial[0]
    assert len(set(model.victim_ips)) == model.spec.victims
    assert len({ip & 0xFFFFFF00 for ip in model.victim_ips}) == 1


def test_vn_retry_flood_lights_the_passive_retry_counter(analyzed):
    """VN/RETRY deflection backscatter is still a detectable QUIC
    response flood — and it is the only scenario where the passive
    RETRY counter (near zero in the wild, Section 6) is non-zero."""
    scenario, result = analyzed("adv-vn-retry")
    model = scenario.adversarial[0]
    assert result.passive_retry_packets > 0
    assert len(result.quic_attacks) >= 1
    assert {a.victim_ip for a in result.quic_attacks} == {model.victim_ip}
    # nothing was rejected: VN and Retry shapes are valid QUIC
    assert not result.malformed_counts
