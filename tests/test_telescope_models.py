"""Tests for the telescope traffic generators."""

import pytest

from repro import obs
from repro.net.addresses import IPv4Network
from repro.net.ipv4 import IPProto, IPv4Header
from repro.net.packet import CapturedPacket
from repro.net.udp import UdpHeader
from repro.util.rng import SeededRng
from repro.util.timeutil import APRIL_1_2021, DAY, HOUR
from repro.internet.topology import InternetModel
from repro.telescope.attacks import (
    CONCURRENT,
    ISOLATED,
    QUIC,
    SEQUENTIAL,
    AttackPlanConfig,
    AttackPlanner,
    AttackTrafficModel,
)
from repro.telescope.backscatter import (
    IcmpVictimResponder,
    QuicVictimResponder,
    ResponderPolicy,
    TcpVictimResponder,
    version_named,
)
from repro.telescope.diurnal import DiurnalModel
from repro.telescope.noise import MisconfigurationModel, StrayUdpModel
from repro.telescope.scanners import BotScannerModel, ProbePool, ResearchScannerModel
from repro.telescope.genlane import wire_items
from repro.telescope.telescope import Telescope
from tests.reference.generator import attack_packets, merge_streams

START = APRIL_1_2021
VICTIM = 0x60001234


def packet_view(records):
    """Gen records as the packets ``Scenario.packets()`` makes of them."""
    return [
        CapturedPacket.from_bytes(timestamp, bytes(wire))
        for timestamp, wire in wire_items(records)
    ]


@pytest.fixture(scope="module")
def internet():
    return InternetModel(SeededRng(31))


# -- diurnal ---------------------------------------------------------------


def test_diurnal_peaks_at_6_and_18():
    model = DiurnalModel()
    peak_6 = model.factor(START + 6 * HOUR)
    peak_18 = model.factor(START + 18 * HOUR)
    trough = model.factor(START + 12 * HOUR)
    night = model.factor(START + 1 * HOUR)
    assert peak_6 > trough and peak_18 > trough
    assert peak_6 > night


def test_diurnal_daily_mean_is_one():
    model = DiurnalModel()
    samples = [model.factor(START + i * 900) for i in range(96)]
    assert abs(sum(samples) / len(samples) - 1.0) < 0.01


# -- probe pool / research scanners ------------------------------------------


def test_probe_pool_cycles_distinct_probes():
    pool = ProbePool(SeededRng(1), size=4)
    probes = [pool.next_probe() for _ in range(8)]
    assert probes[0] == probes[4]
    assert len({bytes(p) for p in probes}) == 4
    assert all(len(p) == 1200 for p in probes)


def test_probe_pool_rejects_empty():
    with pytest.raises(ValueError):
        ProbePool(SeededRng(1), size=0)


def test_research_sweep_counts_and_order(internet):
    model = ResearchScannerModel(
        scanner=internet.research_scanners[0],
        internet=internet,
        rng=SeededRng(2),
        sweep_interval=6 * HOUR,
        sweep_duration=2 * HOUR,
        sample=1.0 / 4096,
    )
    packets = packet_view(model.records(START, START + 6 * HOUR))
    expected = int(internet.telescope_net.size / 4096)
    assert len(packets) == expected
    assert model.weight == 4096
    times = [p.timestamp for p in packets]
    assert times == sorted(times)
    assert all(p.dst_port == 443 for p in packets)
    assert all(p.src == internet.research_scanners[0].address for p in packets)
    assert all(p.dst in internet.telescope_net for p in packets)


def test_research_two_sweeps_in_window(internet):
    model = ResearchScannerModel(
        scanner=internet.research_scanners[0],
        internet=internet,
        rng=SeededRng(2),
        sweep_interval=12 * HOUR,
        sweep_duration=1 * HOUR,
        sample=1.0 / 8192,
    )
    one = len(packet_view(model.records(START, START + 12 * HOUR)))
    two = len(packet_view(model.records(START, START + 24 * HOUR)))
    assert two == 2 * one


# -- bot scanners ------------------------------------------------------------


def test_bot_sessions_diurnal_and_sorted(internet):
    model = BotScannerModel(internet=internet, rng=SeededRng(3), sessions_per_day=2000)
    packets = packet_view(model.records(START, START + DAY))
    times = [p.timestamp for p in packets]
    assert times == sorted(times)
    assert all(p.dst_port == 443 for p in packets)
    # diurnal shape: the 6:00 hour beats the 12:00 hour
    by_hour = {}
    for p in packets:
        by_hour[int((p.timestamp - START) // HOUR)] = (
            by_hour.get(int((p.timestamp - START) // HOUR), 0) + 1
        )
    assert by_hour.get(6, 0) > by_hour.get(12, 0)


def test_bot_sources_are_bots(internet):
    model = BotScannerModel(internet=internet, rng=SeededRng(4), sessions_per_day=500)
    bots = {b.address for b in internet.bot_hosts}
    for packet in packet_view(model.records(START, START + 6 * HOUR)):
        assert packet.src in bots


# -- backscatter responders --------------------------------------------------


def test_quic_responder_train_structure():
    policy = ResponderPolicy(vn_probability=0.0)
    responder = QuicVictimResponder(VICTIM, SeededRng(5), policy)
    packets = packet_view(responder.respond_records(100.0, 0x2C000001, 40000))
    assert len(packets) >= 2
    assert all(p.src == VICTIM for p in packets)
    assert all(p.src_port == 443 for p in packets)
    assert packets[0].timestamp <= packets[1].timestamp


def test_quic_responder_source_scid_policy_caches():
    policy = ResponderPolicy(scid_policy="source", vn_probability=0.0)
    responder = QuicVictimResponder(VICTIM, SeededRng(6), policy)
    responder.respond_records(0.0, 111, 1)
    responder.respond_records(1.0, 111, 2)
    responder.respond_records(2.0, 222, 3)
    assert responder.unique_scids == 2


def test_quic_responder_vn_packets():
    policy = ResponderPolicy(vn_probability=1.0)
    responder = QuicVictimResponder(VICTIM, SeededRng(7), policy)
    packets = packet_view(responder.respond_records(0.0, 111, 1))
    assert len(packets) == 1
    from repro.quic.header import VersionNegotiationPacket, parse_header

    assert isinstance(parse_header(packets[0].payload), VersionNegotiationPacket)


def test_quic_responder_versions():
    policy = ResponderPolicy(version=version_named("mvfst-draft-27"), vn_probability=0.0)
    responder = QuicVictimResponder(VICTIM, SeededRng(8), policy)
    packets = packet_view(responder.respond_records(0.0, 111, 1))
    from repro.quic.header import parse_header

    view = parse_header(packets[0].payload)
    assert view.version == version_named("mvfst-draft-27").value


def test_version_named_unknown_raises():
    with pytest.raises(KeyError):
        version_named("quic-v99")


def test_tcp_responder_flags():
    responder = TcpVictimResponder(VICTIM, SeededRng(9), rst_fraction=0.0)
    packet = packet_view(responder.respond_records(0.0, 111, 2222))[0]
    assert packet.transport.is_syn_ack
    responder_rst = TcpVictimResponder(VICTIM, SeededRng(9), rst_fraction=1.0)
    assert packet_view(responder_rst.respond_records(0.0, 111, 2222))[0].transport.is_rst


def test_icmp_responder_echo_reply():
    responder = IcmpVictimResponder(VICTIM, SeededRng(10))
    packet = packet_view(responder.respond_records(0.0, 111, 0))[0]
    assert packet.is_icmp
    assert packet.transport.is_backscatter


# -- attack planner ------------------------------------------------------------


def test_planner_flood_rate(internet):
    planner = AttackPlanner(internet, SeededRng(11))
    plan = planner.plan(START, START + DAY)
    assert abs(len(plan.quic_floods) - 96) <= 1  # 4/hour x 24h


def test_planner_floods_inside_window(internet):
    planner = AttackPlanner(internet, SeededRng(12))
    plan = planner.plan(START, START + DAY)
    for flood in plan.all_floods:
        assert flood.start >= START
        assert flood.end <= START + DAY + 1


def test_planner_category_mix(internet):
    config = AttackPlanConfig(quic_floods_per_hour=40)
    planner = AttackPlanner(internet, SeededRng(13), config)
    plan = planner.plan(START, START + DAY)
    categories = [f.category for f in plan.quic_floods]
    share = categories.count(CONCURRENT) / len(categories)
    assert 0.4 < share < 0.62
    assert categories.count(ISOLATED) / len(categories) < 0.2


def test_planner_concurrent_partner_overlaps(internet):
    planner = AttackPlanner(internet, SeededRng(14))
    plan = planner.plan(START, START + 2 * DAY)
    for flood in plan.quic_floods:
        if flood.category == CONCURRENT:
            assert flood.partner is not None
            overlap = min(flood.end, flood.partner.end) - max(
                flood.start, flood.partner.start
            )
            assert overlap >= 1.0


def test_planner_sequential_partner_disjoint(internet):
    planner = AttackPlanner(internet, SeededRng(15))
    plan = planner.plan(START, START + 2 * DAY)
    checked = 0
    for flood in plan.quic_floods:
        if flood.category == SEQUENTIAL and flood.partner is not None:
            overlap = min(flood.end, flood.partner.end) - max(
                flood.start, flood.partner.start
            )
            assert overlap <= 0
            checked += 1
    assert checked > 0


def test_planner_isolated_has_no_partner(internet):
    planner = AttackPlanner(internet, SeededRng(16))
    plan = planner.plan(START, START + 2 * DAY)
    for flood in plan.quic_floods:
        if flood.category == ISOLATED:
            assert flood.partner is None


def test_planner_mostly_known_victims(internet):
    config = AttackPlanConfig(quic_floods_per_hour=20)
    planner = AttackPlanner(internet, SeededRng(17), config)
    plan = planner.plan(START, START + DAY)
    known = sum(
        1 for f in plan.quic_floods if f.victim_ip in internet.census
    )
    assert known / len(plan.quic_floods) > 0.9


def test_planner_background_avoids_quic_victims(internet):
    planner = AttackPlanner(internet, SeededRng(18))
    plan = planner.plan(START, START + DAY)
    quic_victims = {f.victim_ip for f in plan.quic_floods}
    partner_ids = {id(f.partner) for f in plan.quic_floods if f.partner}
    for flood in plan.common_floods:
        if id(flood) not in partner_ids:
            assert flood.victim_ip not in quic_victims


def test_attack_traffic_sorted_and_sourced(internet):
    planner = AttackPlanner(
        internet, SeededRng(19), AttackPlanConfig(quic_floods_per_hour=2, common_floods_per_hour=2)
    )
    plan = planner.plan(START, START + 6 * HOUR)
    traffic = AttackTrafficModel(internet, SeededRng(20))
    victims = {f.victim_ip for f in plan.all_floods}
    last = 0.0
    count = 0
    for packet in attack_packets(traffic, plan):
        assert packet.timestamp >= last
        last = packet.timestamp
        assert packet.src in victims
        count += 1
    assert count > 100


# -- noise ------------------------------------------------------------


def test_misconfig_sessions_small(internet):
    model = MisconfigurationModel(internet, SeededRng(21), sessions_per_day=2000)
    packets = packet_view(model.records(START, START + 6 * HOUR))
    assert packets
    times = [p.timestamp for p in packets]
    assert times == sorted(times)
    assert all(p.src_port == 443 for p in packets)


def test_stray_udp_fails_dissection(internet):
    from repro.core.dissect import QuicDissector

    model = StrayUdpModel(internet, SeededRng(22), packets_per_day=5000)
    dissector = QuicDissector()
    packets = packet_view(model.records(START, START + 12 * HOUR))
    assert packets
    for packet in packets:
        assert not dissector.dissect(packet.payload).valid


# -- telescope -----------------------------------------------------------


def test_telescope_filters_by_prefix():
    """The tap keeps a chunk's records destined to the prefix (a gen
    record's third field), yields no empty chunk, and counts what it
    kept and dropped in the registry."""
    prefix = IPv4Network.from_cidr("44.0.0.0/9")
    telescope = Telescope(prefix)
    inside = (0.0, 1, prefix.address_at(5))
    outside = (0.5, 1, 0x08080808)
    was = obs.enabled()
    obs.REGISTRY.reset()
    obs.enable()
    try:
        captured = list(telescope.capture_records([[inside, outside], [outside]]))
        assert captured == [[inside]]
        assert obs.REGISTRY.get("repro_telescope_packets_total").value() == 1
        assert obs.REGISTRY.get("repro_telescope_dropped_total").value() == 2
    finally:
        obs.REGISTRY.reset()
        obs.set_enabled(was)


def test_telescope_extrapolation_factor():
    telescope = Telescope(IPv4Network.from_cidr("44.0.0.0/9"))
    assert telescope.extrapolation_factor == 512


def test_merge_streams_orders_packets():
    def pkt(t):
        return CapturedPacket(t, IPv4Header(1, 2, IPProto.UDP), UdpHeader(1, 2), b"")

    a = [pkt(1.0), pkt(3.0)]
    b = [pkt(2.0), pkt(4.0)]
    merged = list(merge_streams(iter(a), iter(b)))
    assert [p.timestamp for p in merged] == [1.0, 2.0, 3.0, 4.0]
