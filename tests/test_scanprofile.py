"""Tests for scanner behaviour profiling."""

import pytest

from repro.core.scanprofile import ScanProfiler
from repro.internet.topology import InternetModel
from repro.net.addresses import IPv4Network
from repro.net.packet import IPProto
from repro.telescope.scanners import BotScannerModel, ResearchScannerModel
from repro.util.rng import SeededRng
from repro.util.timeutil import APRIL_1_2021, DAY, HOUR
from tests.reference import generator as reference
from tests.reference.headers import HeaderPacket, IPv4Header, UdpHeader

TELESCOPE = IPv4Network.from_cidr("44.0.0.0/24")  # tiny, for direct tests


def probe(src, dst, ts, sport=40000):
    return HeaderPacket(
        ts, IPv4Header(src, dst, IPProto.UDP), UdpHeader(sport, 443), b""
    )


def test_untracked_sources_ignored():
    profiler = ScanProfiler([1], TELESCOPE)
    profiler.observe(probe(99, TELESCOPE.address_at(0), 0.0))
    assert profiler.profile(99) is None
    assert profiler.profiles() == []


def test_full_sweep_profile():
    profiler = ScanProfiler([1], TELESCOPE)
    for i in range(TELESCOPE.size):
        profiler.observe(probe(1, TELESCOPE.address_at(i), i * 1.0))
    profile = profiler.profile(1)
    assert profile.packet_count == TELESCOPE.size
    assert profile.coverage(TELESCOPE) == 1.0
    assert profile.sweep_count == 1
    assert profile.sweep_interval() is None


def test_periodic_sweeps_detected():
    profiler = ScanProfiler([1], TELESCOPE, sweep_gap=3600.0)
    for sweep in range(3):
        start = sweep * 6 * HOUR
        for i in range(TELESCOPE.size):
            profiler.observe(probe(1, TELESCOPE.address_at(i), start + i * 0.5))
    profile = profiler.profile(1)
    assert profile.sweep_count == 3
    assert profile.sweep_interval() == pytest.approx(6 * HOUR, rel=0.05)


def test_classify_research_vs_bot():
    profiler = ScanProfiler([1, 2], TELESCOPE)
    # source 1: full sweep at 2 pps
    for i in range(TELESCOPE.size):
        profiler.observe(probe(1, TELESCOPE.address_at(i), i * 0.5))
    # source 2: 10 probes to random addresses over 30 seconds
    for i in range(10):
        profiler.observe(probe(2, TELESCOPE.address_at((i * 37) % 256), i * 3.0, sport=50000 + i))
    research = profiler.classify(1)
    bot = profiler.classify(2)
    assert research.is_research_sweep
    assert not bot.is_research_sweep
    assert any("coverage" in reason for reason in bot.reasons)


def test_classify_unknown_source():
    profiler = ScanProfiler([1], TELESCOPE)
    assert profiler.classify(1) is None  # tracked but never seen
    assert profiler.classify(9) is None


def test_against_generated_research_traffic():
    internet = InternetModel(SeededRng(8))
    scanner = internet.research_scanners[0]
    model = ResearchScannerModel(
        scanner=scanner,
        internet=internet,
        rng=SeededRng(9),
        sweep_interval=12 * HOUR,
        sweep_duration=4 * HOUR,
        sample=1.0 / 1024,
    )
    profiler = ScanProfiler([scanner.address], internet.telescope_net, sweep_gap=2 * HOUR)
    for packet in reference.packets(model, APRIL_1_2021, APRIL_1_2021 + DAY):
        profiler.observe(packet)
    profile = profiler.profile(scanner.address)
    assert profile.sweep_count == 2
    assert profile.sweep_interval() == pytest.approx(12 * HOUR, rel=0.1)
    # sampled sweeps: rescale coverage by the sampling weight
    sampled_coverage = profile.coverage(internet.telescope_net)
    assert sampled_coverage * model.weight == pytest.approx(2.0, rel=0.1)
    verdict = profiler.classify(
        scanner.address, min_coverage_per_sweep=0.4 / model.weight
    )
    assert verdict.is_research_sweep


def test_against_generated_bot_traffic():
    internet = InternetModel(SeededRng(10))
    model = BotScannerModel(internet=internet, rng=SeededRng(11), sessions_per_day=800)
    bots = {b.address for b in internet.bot_hosts}
    profiler = ScanProfiler(bots, internet.telescope_net)
    for packet in reference.packets(model, APRIL_1_2021, APRIL_1_2021 + DAY / 2):
        profiler.observe(packet)
    for profile in profiler.profiles():
        verdict = profiler.classify(profile.source)
        assert not verdict.is_research_sweep
