"""Tests for the AS registry, census, GreyNoise platform and topology."""

import pytest

from repro.net.addresses import IPv4Network, parse_ipv4
from repro.util.rng import SeededRng
from repro.internet import (
    ActiveScanCensus,
    AsRegistry,
    GreyNoisePlatform,
    GreyNoiseTag,
    InternetModel,
    NetworkType,
    QuicServerRecord,
    TopologyConfig,
)


# -- AS registry -----------------------------------------------------------


def test_registry_register_and_lookup():
    registry = AsRegistry()
    registry.register(
        65001,
        "Example-Eyeball",
        NetworkType.EYEBALL,
        country="US",
        prefixes=[IPv4Network.from_cidr("100.64.0.0/16")],
    )
    system = registry.lookup(parse_ipv4("100.64.3.4"))
    assert system is not None
    assert system.asn == 65001
    assert registry.network_type_of(parse_ipv4("100.64.3.4")) is NetworkType.EYEBALL


def test_registry_unrouted_is_unknown():
    registry = AsRegistry()
    assert registry.lookup(parse_ipv4("1.1.1.1")) is None
    assert registry.network_type_of(parse_ipv4("1.1.1.1")) is NetworkType.UNKNOWN


def test_registry_announce_requires_registration():
    registry = AsRegistry()
    with pytest.raises(KeyError):
        registry.announce(65001, IPv4Network.from_cidr("10.0.0.0/8"))


def test_registry_duplicate_prefix_rejected():
    registry = AsRegistry()
    net = IPv4Network.from_cidr("10.0.0.0/8")
    registry.register(65001, "A", NetworkType.CONTENT, prefixes=[net])
    registry.register(65002, "B", NetworkType.CONTENT)
    with pytest.raises(ValueError):
        registry.announce(65002, net)


# -- census ------------------------------------------------------------


def _record(ip="9.9.9.9", provider="Google"):
    return QuicServerRecord(
        address=parse_ipv4(ip), asn=15169, provider=provider, versions=("draft-29",)
    )


def test_census_membership():
    census = ActiveScanCensus([_record()])
    assert census.is_known_quic_server(parse_ipv4("9.9.9.9"))
    assert not census.is_known_quic_server(parse_ipv4("9.9.9.8"))
    assert parse_ipv4("9.9.9.9") in census


def test_census_by_provider_and_counts():
    census = ActiveScanCensus(
        [_record("1.1.1.1", "Google"), _record("2.2.2.2", "Facebook"), _record("3.3.3.3", "Google")]
    )
    assert len(census.by_provider("Google")) == 2
    assert len(census.by_provider("Facebook")) == 1


# -- greynoise ------------------------------------------------------------


def test_greynoise_observe_and_query():
    platform = GreyNoisePlatform()
    platform.observe(1234, [GreyNoiseTag.MIRAI], actor="botnet", timestamp=5.0)
    record = platform.query(1234)
    assert record.is_malicious
    assert not record.is_benign
    assert platform.query(9999) is None


def test_greynoise_merge_tags():
    platform = GreyNoisePlatform()
    platform.observe(1, [GreyNoiseTag.SPOOFABLE], timestamp=1.0)
    platform.observe(1, [GreyNoiseTag.BRUTEFORCER], timestamp=9.0)
    record = platform.query(1)
    assert GreyNoiseTag.SPOOFABLE in record.tags
    assert record.is_malicious
    assert record.first_seen == 1.0
    assert record.last_seen == 9.0


def test_greynoise_classify_sources():
    platform = GreyNoisePlatform()
    platform.observe(1, [GreyNoiseTag.BENIGN_SCANNER])
    platform.observe(2, [GreyNoiseTag.MIRAI])
    platform.observe(3, [GreyNoiseTag.SPOOFABLE])
    summary = platform.classify_sources([1, 2, 3, 4])
    assert summary == {"benign": 1, "malicious": 1, "unknown": 1, "unseen": 1}


# -- topology ------------------------------------------------------------


@pytest.fixture(scope="module")
def internet():
    return InternetModel(SeededRng(99))


def test_topology_is_deterministic():
    a = InternetModel(SeededRng(5))
    b = InternetModel(SeededRng(5))
    assert [r.address for r in a.census.all_records()] == [
        r.address for r in b.census.all_records()
    ]


def test_topology_provider_populations(internet):
    config = TopologyConfig()
    assert len(internet.census.by_provider("Google")) == config.google_servers
    assert len(internet.census.by_provider("Facebook")) == config.facebook_servers


def test_topology_no_prefix_overlaps_telescope(internet):
    telescope = internet.telescope_net
    for system in internet.registry:
        for prefix in system.prefixes:
            assert not (
                prefix.first <= telescope.last and telescope.first <= prefix.last
            )


def test_topology_servers_resolve_to_content_type(internet):
    for record in internet.census.all_records():
        assert internet.registry.network_type_of(record.address) is NetworkType.CONTENT


def test_topology_bots_live_in_eyeball_networks(internet):
    for bot in internet.bot_hosts:
        assert internet.registry.network_type_of(bot.address) is NetworkType.EYEBALL


def test_topology_research_scanners_in_education(internet):
    assert len(internet.research_scanners) == 2
    for scanner in internet.research_scanners:
        assert (
            internet.registry.network_type_of(scanner.address)
            is NetworkType.EDUCATION
        )


def test_topology_tagged_bot_fraction_small(internet):
    tagged = sum(1 for b in internet.bot_hosts if b.tags)
    assert 0 < tagged < len(internet.bot_hosts) * 0.1


def test_topology_retry_supported_not_sent(internet):
    for record in internet.census.all_records():
        assert record.supports_retry
        assert not record.sends_retry


def test_topology_version_mixes(internet):
    google = {r.versions[0] for r in internet.census.by_provider("Google")}
    facebook = {r.versions[0] for r in internet.census.by_provider("Facebook")}
    assert "draft-29" in google
    assert "mvfst-draft-27" in facebook


def test_random_unrouted_address(internet):
    for _ in range(20):
        address = internet.random_unrouted_address()
        assert internet.registry.lookup(address) is None
        assert address not in internet.telescope_net


def test_random_telescope_address(internet):
    for _ in range(20):
        assert internet.random_telescope_address() in internet.telescope_net


def test_provider_lookup(internet):
    assert internet.provider("Google").name == "Google"
    with pytest.raises(KeyError):
        internet.provider("Nonexistent")
