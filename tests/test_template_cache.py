"""Equivalence contract of the generation memos.

The memos (the scanners' probe datagrams, the keystream memo, the
responders' compiled flights) only replay bytes whose inputs are fully
captured by their keys, so a seeded scenario must produce
*byte-identical* packet streams — and bit-identical analysis results —
with the memos in place or bypassed by :func:`bypass_template_caches`.
These tests pin that contract; any memo key that misses a
byte-determining input shows up here as a diff.
"""

import gc
import os
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import QuicsandPipeline
from repro.core.report import build_report
from repro.quic import crypto
from repro.quic.packet import protect_packet
from repro.quic.versions import KNOWN_VERSIONS
from repro.telescope import Scenario, ScenarioConfig, attacks, backscatter, scanners
from repro.telescope.backscatter import (
    _FLIGHT_TALLY,
    QuicVictimResponder,
    ResponderPolicy,
    _compile_flight,
)
from repro.telescope.genlane import wire_items
from repro.telescope.scanners import ProbePool
from repro.util.batching import MEMO_ENTRIES
from repro.util.rng import SeededRng
from repro.util.timeutil import HOUR
from tests.reference.generator import respond, rich_packets


def bypass_template_caches(patch):
    """Route every generation memo through a fresh build for as long as
    ``patch`` (a ``MonkeyPatch``) holds: no flight compiles, every
    keystream is recomputed, and the probe memo starts empty (a
    scenario's probes are all distinct, so each one is rebuilt)."""
    patch.setattr(backscatter, "_compile_flight", lambda parts, packets: False)
    patch.setattr(crypto, "_keystream", crypto._compute_keystream)
    scanners._probe_datagram.cache_clear()


def _scenario():
    return Scenario(
        ScenarioConfig(seed=11, duration=1 * HOUR, research_sample=1 / 2048)
    )


def _rich_capture(scenario):
    return [(p.timestamp, p.to_bytes()) for p in rich_packets(scenario)]


def _wire_capture(scenario):
    """The wire bytes ``Scenario.packets()`` parses."""
    return [(t, bytes(wire)) for t, wire in wire_items(scenario.records())]


def _analyze(scenario):
    pipeline = QuicsandPipeline(
        registry=scenario.internet.registry,
        census=scenario.internet.census,
        greynoise=scenario.internet.greynoise,
    )
    return pipeline.process(scenario.packets())


# -- the probe memo ------------------------------------------------------


def test_probe_memo_is_an_lru_of_memo_entries():
    """Pools rebuilt from the same seed replay the memo's bytes; after a
    ``cache_clear()`` they are sealed afresh, to equal bytes."""
    memo = scanners._probe_datagram
    assert memo.cache_parameters()["maxsize"] == MEMO_ENTRIES
    memo.cache_clear()
    first = ProbePool(SeededRng(5), size=4)._probes
    replayed = ProbePool(SeededRng(5), size=4)._probes
    assert (memo.cache_info().hits, memo.cache_info().misses) == (4, 4)
    assert all(a is b for a, b in zip(first, replayed))
    memo.cache_clear()
    rebuilt = ProbePool(SeededRng(5), size=4)._probes
    assert memo.cache_info().misses == 4
    assert rebuilt == first and rebuilt[0] is not first[0]


# -- responder equivalence ---------------------------------------------


def _respond_train(monkeypatch, disabled: bool):
    if disabled:
        bypass_template_caches(monkeypatch)
    hits_before = _FLIGHT_TALLY["hits"]
    responder = QuicVictimResponder(
        victim_ip=0x08080808,
        rng=SeededRng(42),
        policy=ResponderPolicy(
            scid_policy="source", keepalive_pings=2, attacker_dcid_pool=2
        ),
    )
    packets = []
    for i in range(8):
        packets += respond(responder, float(i), 0x0A000001, 4000 + i)
    hits = _FLIGHT_TALLY["hits"] - hits_before
    return responder, hits, [(p.timestamp, p.to_bytes()) for p in packets]

def test_responder_bytes_identical_cache_on_vs_off(monkeypatch):
    responder_on, hits_on, train_on = _respond_train(monkeypatch, disabled=False)
    responder_off, hits_off, train_off = _respond_train(monkeypatch, disabled=True)
    assert train_on == train_off
    # two attacker DCIDs: each is answered canonically once, then from
    # its compiled flight — whatever SCID or ServerHello random follows
    assert hits_on > 0
    assert all(responder_on._flights.values())
    assert hits_off == 0
    assert not any(responder_off._flights.values())


# -- scenario-level equivalence ----------------------------------------


def test_scenario_stream_bytes_identical_cache_on_vs_off(monkeypatch):
    # the reference generator runs the responders' respond(), the
    # production one their respond_records(): each has its own cache use
    for generator in (_rich_capture, _wire_capture):
        enabled = generator(_scenario())
        with monkeypatch.context() as patch:
            bypass_template_caches(patch)
            disabled = generator(_scenario())
        assert len(enabled) == len(disabled), generator.__name__
        assert enabled == disabled, generator.__name__


def test_pipeline_result_identical_cache_on_vs_off(monkeypatch):
    scenario = _scenario()
    result_on = _analyze(scenario)
    report_on = build_report(
        result_on, research_weight=scenario.truth.research_weight
    )
    bypass_template_caches(monkeypatch)
    scenario = _scenario()
    result_off = _analyze(scenario)
    report_off = build_report(
        result_off, research_weight=scenario.truth.research_weight
    )
    assert result_on.total_packets == result_off.total_packets
    assert result_on.class_counts == result_off.class_counts
    assert result_on.hourly_requests == result_off.hourly_requests
    assert result_on.hourly_responses == result_off.hourly_responses
    assert report_on == report_off


# -- compiled flights ---------------------------------------------------

#: raised by the fuzz-smoke CI job, like the dissector fuzz suites
ITERS = int(os.environ.get("REPRO_FUZZ_ITERS", "300"))


def _canonical(responder, dcid, scid, sh_random):
    parts = responder._flight_parts(responder.policy.version, dcid, scid, sh_random)
    return parts, [protect_packet(plain, keys) for plain, keys in parts]


@settings(max_examples=ITERS // 5, deadline=None)
@given(
    version=st.sampled_from(KNOWN_VERSIONS),
    pings=st.integers(0, 3),
    scid_policy=st.sampled_from(["request", "source"]),
    dcid=st.binary(min_size=0, max_size=20),
    scid_len=st.integers(0, 20),
    data=st.data(),
)
def test_compiled_packets_equal_protect_packet(
    version, pings, scid_policy, dcid, scid_len, data
):
    """Every sealer of a compiled flight reproduces ``protect_packet`` on
    the equivalent ``PlainPacket`` for SCIDs and ServerHello randoms it
    was not compiled from — including the 3-byte PING payload, whose
    header-protection sample lies entirely in the per-response tag."""
    scid = st.binary(min_size=scid_len, max_size=scid_len)
    sh_random = st.binary(min_size=32, max_size=32)
    responder = QuicVictimResponder(
        0x08080808,
        SeededRng(1),
        ResponderPolicy(version=version, keepalive_pings=pings, scid_policy=scid_policy),
    )
    flight = _compile_flight(*_canonical(responder, dcid, data.draw(scid), data.draw(sh_random)))
    assert flight, "the compiled flight failed its own self-check"
    seal_initial, seal_rest = flight
    assert len(seal_rest) == 2 + pings
    for _ in range(3):
        new_scid, new_random = data.draw(scid), data.draw(sh_random)
        _parts, expected = _canonical(responder, dcid, new_scid, new_random)
        sealed = [seal_initial(new_scid, new_random)]
        sealed += [seal(new_scid) for seal in seal_rest]
        assert sealed == expected


@settings(max_examples=ITERS // 12, deadline=None)
@given(
    version=st.sampled_from(KNOWN_VERSIONS),
    pings=st.integers(0, 3),
    scid_policy=st.sampled_from(["request", "source"]),
    seed=st.integers(0, 2**32),
)
def test_responder_trains_identical_cache_on_vs_off(version, pings, scid_policy, seed):
    def train(disabled):
        with pytest.MonkeyPatch.context() as patch:
            if disabled:
                bypass_template_caches(patch)
            responder = QuicVictimResponder(
                0x08080808,
                SeededRng(seed),
                ResponderPolicy(
                    version=version,
                    keepalive_pings=pings,
                    scid_policy=scid_policy,
                    retransmit_probability=0.2,
                    attacker_dcid_pool=3,
                ),
            )
            return [
                responder.respond_records(float(i), 0x0A000001 + i % 2, 4000)
                for i in range(12)
            ]

    assert train(disabled=False) == train(disabled=True)


class _SpyPool(list):
    """A DCID pool that logs every draw ``rng.choice`` makes from it."""

    def __init__(self, items, log):
        super().__init__(items)
        self.log = log

    def __getitem__(self, index):
        dcid = super().__getitem__(index)
        self.log.append(dcid)
        return dcid


def test_flights_compile_once_per_recurring_dcid_and_die_with_the_flood(monkeypatch):
    draws, responders, compiles = [], [], []

    class SpyResponder(QuicVictimResponder):
        def __init__(self, *args):
            super().__init__(*args)
            log = []
            draws.append(log)
            self._dcid_pool = _SpyPool(self._dcid_pool, log)
            responders.append(weakref.ref(self))

    def counting_compile(parts, packets):
        compiles.append(1)
        return _compile_flight(parts, packets)

    monkeypatch.setattr(attacks, "QuicVictimResponder", SpyResponder)
    monkeypatch.setattr(backscatter, "_compile_flight", counting_compile)
    gc.collect()
    before = dict(_FLIGHT_TALLY)

    scenario = _scenario()
    floods = scenario.plan.quic_floods
    assert floods
    for flood in floods:
        records = scenario._attack_traffic.flood_records(flood)
        assert sum(1 for _ in records) > 0
        del records
        # the flood is over: its responder, and with it the table of
        # compiled flights, is gone without waiting for a collection
        assert responders[-1]() is None
        assert _FLIGHT_TALLY["size"] == before["size"]

    assert len(responders) == len(floods)
    recurring = sum(
        1 for log in draws for dcid in set(log) if log.count(dcid) > 1
    )
    assert 0 < len(compiles) <= recurring
    hits = _FLIGHT_TALLY["hits"] - before["hits"]
    misses = _FLIGHT_TALLY["misses"] - before["misses"]
    assert hits + misses == sum(len(log) for log in draws)
    assert hits / (hits + misses) >= 0.8
