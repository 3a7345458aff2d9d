"""Fallback-boundary property suite for the columnar batch fast lane.

The contract under test: for *every* payload, routing through the fast
lane (:meth:`BatchLane.entry_for`) and through the rich dissector
(:func:`entry_from_dissection` over :meth:`QuicDissector.dissect`)
yields the same :data:`LaneEntry` — in particular the same
(classification, version, DCID, malformed-slug-or-``None``) tuple the
downstream pipeline consumes.  Inputs come from the checked-in fuzz
corpus (``tests/data/corpus/*.hex``), seeded random bytes, the fuzz
suite's structure-aware mutation generator, and real scenario traffic,
so both the trivially-rejected bulk and the deep parser paths cross the
boundary.

Below that, the adapter/sink seam: the lane's two adapters
(``observe_packets`` / ``observe_records``) must emit the same
observations, counters and malformed tallies for the same traffic, and
the two sinks (``PartialState.apply`` / ``SketchTier.apply``) must not
care where a batch boundary falls.
"""

import functools
import pathlib
import pickle

import pytest

from repro import obs
from repro.core.batchlane import (
    E_DCID,
    E_REASON,
    E_VALID,
    E_VERSION,
    FALLBACK_REASONS,
    BatchLane,
    entry_from_dissection,
    fast_entry,
)
from repro.core.dissect import MalformedReason, QuicDissector
from repro.core.pipeline import AnalysisConfig, PartialState
from repro.core.report import build_report
from repro.net.packet import (
    KIND_ICMP,
    KIND_UDP,
    CapturedPacket,
    IcmpType,
    IPProto,
    TcpFlags,
)
from repro.stream.sketch import SketchTier
from repro.telescope import Scenario, ScenarioConfig
from repro.telescope.presets import get_scenario, scenario_names
from repro.util.batching import MEMO_ENTRIES
from repro.util.rng import SeededRng
from repro.util.timeutil import HOUR

from tests.oracle import make_pipeline, state_facts
from tests.test_fuzz_dissect import valid_datagrams
from tests.reference.headers import (
    HeaderPacket,
    IPv4Header,
    IcmpHeader,
    TcpHeader,
    UdpHeader,
)

CORPUS = pathlib.Path(__file__).parent / "data" / "corpus"
REASON_SLUGS = {reason.value for reason in MalformedReason}


@pytest.fixture(scope="module")
def dissector():
    return QuicDissector()


def rich_entry(dissector, payload):
    return entry_from_dissection(dissector.dissect(payload))


def assert_same_entry(dissector, payload):
    """One payload through both paths must agree entry-for-entry."""
    lane_entry = BatchLane().entry_for(payload)
    reference = rich_entry(dissector, payload)
    assert lane_entry == reference, payload.hex()
    # the ISSUE's boundary tuple, spelled out: classification, version,
    # DCID, malformed-slug-or-None
    assert (
        lane_entry[E_VALID],
        lane_entry[E_VERSION],
        lane_entry[E_DCID],
        lane_entry[E_REASON],
    ) == (
        reference[E_VALID],
        reference[E_VERSION],
        reference[E_DCID],
        reference[E_REASON],
    ), payload.hex()
    if not lane_entry[E_VALID]:
        assert lane_entry[E_REASON] in REASON_SLUGS, payload.hex()
    return lane_entry


def corpus_payloads():
    payloads = []
    for path in sorted(CORPUS.glob("*.hex")):
        hex_text = "".join(
            line.strip()
            for line in path.read_text().splitlines()
            if line.strip() and not line.startswith("#")
        )
        payloads.append(bytes.fromhex(hex_text))
    return payloads


def test_corpus_boundary_agreement(dissector):
    payloads = corpus_payloads()
    assert payloads, "regression corpus is empty"
    for payload in payloads:
        assert_same_entry(dissector, payload)


def test_random_bytes_boundary_agreement(dissector):
    rng = SeededRng(0xBA7C4, "lane-random")
    for i in range(400):
        length = rng.randint(0, 64) if i % 3 else rng.randint(0, 1500)
        assert_same_entry(dissector, rng.randbytes(length))


def test_structure_aware_boundary_agreement(dissector):
    """Mutated valid datagrams reach the deep coalesced-walk branches
    (VN shapes, retry tags, token varints) random bytes rarely hit."""
    rng = SeededRng(0xBA7C5, "lane-mutate")
    seeds = valid_datagrams()
    for seed_payload in seeds:
        entry = assert_same_entry(dissector, seed_payload)
        assert entry[E_VALID], seed_payload.hex()
    for _ in range(400):
        data = bytearray(rng.choice(seeds))
        for _mutation in range(rng.randint(1, 4)):
            choice = rng.randint(0, 4)
            if choice == 0 and data:
                index = rng.randint(0, len(data) - 1)
                data[index] ^= 1 << rng.randint(0, 7)
            elif choice == 1 and data:
                data[rng.randint(0, len(data) - 1)] = rng.randint(0, 255)
            elif choice == 2 and len(data) > 1:
                del data[rng.randint(1, len(data) - 1) :]
            elif choice == 3:
                data.extend(rng.randbytes(rng.randint(1, 32)))
            else:
                other = rng.choice(seeds)
                cut = rng.randint(0, len(data))
                data = bytearray(bytes(data[:cut]) + other[cut:])
        assert_same_entry(dissector, bytes(data))


def test_scenario_traffic_boundary_agreement(dissector):
    """Every distinct UDP payload of a real scenario crosses the
    boundary identically — the mix the lane actually sees in steady
    state (scan templates, floods, backscatter, stray UDP)."""
    scenario = Scenario(ScenarioConfig(seed=23, duration=HOUR // 2))
    seen = set()
    for packet in scenario.packets():
        if packet.proto == IPProto.UDP and packet.payload not in seen:
            seen.add(packet.payload)
            assert_same_entry(dissector, packet.payload)
    assert len(seen) > 100, "scenario produced too few distinct payloads"


def test_trivial_rejects_settle_fast():
    """The stray-UDP bulk (empty / first-byte rejects) never touches
    the rich dissector."""
    lane = BatchLane()
    assert lane.entry_for(b"")[E_REASON] == "empty"
    assert lane.entry_for(b"\x00" * 40)[E_REASON] == "no-fixed-bit"
    assert lane.fast_parses == 2
    assert lane.fallbacks == {}


def test_gquic_settles_fast(dissector):
    """Legacy gQUIC public headers are valid without any fallback."""
    payload = b"\x0d" + b"\x11" * 8 + b"Q043" + b"\x00" * 10
    lane = BatchLane()
    entry = lane.entry_for(payload)
    assert entry == rich_entry(dissector, payload)
    assert entry[E_VALID] and entry[E_VERSION] == int.from_bytes(b"Q043", "big")
    assert lane.fast_parses == 1 and lane.fallbacks == {}


def test_memo_counts_hits_and_misses():
    lane = BatchLane()
    payload = b"\x00" * 30
    lane.entry_for(payload)
    lane.entry_for(payload)
    lane.entry_for(payload)
    assert lane.cache_misses == 1
    assert lane.cache_hits == 2


def test_memo_is_an_lru_of_memo_entries():
    """A payload touched between cold inserts stays; one left untouched
    falls out, misses again and settles to an equal entry."""
    lane = BatchLane()
    hot, cold = b"\x00hot", valid_datagrams()[0]
    lane.entry_for(hot)
    first = lane.entry_for(cold)
    for i in range(MEMO_ENTRIES):
        lane.entry_for(b"\x00cold%d" % i)
        lane.entry_for(hot)
        assert lane.entry_for.cache_info().currsize <= MEMO_ENTRIES
    assert (lane.cache_hits, lane.cache_misses) == (MEMO_ENTRIES, MEMO_ENTRIES + 2)
    again = lane.entry_for(cold)  # evicted: parsed afresh
    assert lane.cache_misses == MEMO_ENTRIES + 3
    assert again == first and again is not first


def test_lane_memo_keeps_the_hits():
    """The bound binds, and keeps what hits: a 2 h window holds far more
    distinct payloads than the memo keeps, but the hits come from
    recurring scan templates, and an unbounded memo adds almost none.
    Counts only, no clock."""
    scenario = Scenario(ScenarioConfig(duration=2 * HOUR, research_sample=1 / 64))
    bounded, unbounded = BatchLane(), BatchLane()
    unbounded.entry_for = functools.lru_cache(maxsize=None)(unbounded._entry_uncached)
    pipeline = make_pipeline(scenario)
    states = {lane: PartialState.initial(pipeline.config) for lane in (bounded, unbounded)}
    for batch in scenario.lane_batches():
        for lane, state in states.items():
            state.consume_lane_records(batch, lane)
    reports = []
    for lane, state in states.items():
        state.record_classifier(lane)
        state.close()
        result = pipeline.finalize_state(state)
        reports.append(build_report(result, research_weight=scenario.truth.research_weight))
    kept, possible = (lane.entry_for.cache_info() for lane in (bounded, unbounded))
    assert possible.currsize > 4 * MEMO_ENTRIES
    assert kept.currsize <= MEMO_ENTRIES
    assert kept.hits >= 0.99 * possible.hits
    assert reports[0] == reports[1]


def test_fast_plus_fallback_equals_misses(dissector):
    """Every memo miss is settled by exactly one of the two parsers."""
    rng = SeededRng(0xBA7C6, "lane-split")
    lane = BatchLane()
    for _ in range(200):
        lane.entry_for(rng.randbytes(rng.randint(0, 200)))
    for seed_payload in valid_datagrams():
        lane.entry_for(seed_payload)
    assert lane.fast_parses + sum(lane.fallbacks.values()) == lane.cache_misses
    assert set(lane.fallbacks) <= set(FALLBACK_REASONS)


def test_valid_initial_falls_back_for_frame_walk(dissector):
    """A well-formed client Initial needs the rich dissector (frame
    walk / decrypt live there) — and still lands on the same entry."""
    payload = valid_datagrams()[0]
    lane = BatchLane()
    entry = lane.entry_for(payload)
    assert entry[E_VALID]
    assert lane.fallbacks.get("parse", 0) + lane.fallbacks.get("error", 0) >= 0
    assert entry == rich_entry(dissector, payload)


def test_fast_entry_none_means_fallback_only():
    """fast_entry returning None is a routing decision, not a verdict:
    the lane must still produce a definitive entry via the dissector."""
    payload = b"\xc0\x00\x00\x00\x01\x15" + b"x" * 4  # bad CID length
    assert fast_entry(payload) is None
    lane = BatchLane()
    entry = lane.entry_for(payload)
    assert entry[E_VALID] is False
    assert entry[E_REASON] in REASON_SLUGS


def test_publish_lane_metrics_exports_families():
    obs.enable()
    try:
        obs.REGISTRY.reset()
        lane = BatchLane()
        lane.entry_for(b"")
        lane.entry_for(b"\xc0\x00\x00\x00\x01\x15" + b"x" * 4)
        lane.publish_lane_metrics()
        snapshot = obs.REGISTRY.snapshot()
        fast = snapshot["repro_batchlane_fast_total"]
        fallback = snapshot["repro_batchlane_fallback_total"]
        assert fast[0] == "counter" and fast[4] == {(): 1}
        assert fallback[2] == ("reason",)
        assert fallback[4] == {("parse",): 1}
    finally:
        obs.REGISTRY.reset()
        obs.set_enabled(False)


# -- the seam: two adapters, two sinks ----------------------------------------


def lane_record(packet, dissect=True):
    """A packet as the 11-field lane record (the layout on
    ``BatchLane.observe_records``), written out independently of the
    generation lane that emits them."""
    kind = packet.kind
    f1 = f2 = 0
    ship = False
    if kind == KIND_ICMP:
        f1, f2 = packet.icmp_type, packet.icmp_code
    elif kind:
        f1, f2 = packet.src_port, packet.dst_port
        ship = kind == KIND_UDP and dissect and (f1 == 443) != (f2 == 443)
    return (
        packet.timestamp,
        packet.src,
        packet.dst,
        packet.total_length,
        packet.proto,
        kind,
        f1,
        f2,
        packet.tcp_flags,
        len(packet.payload),
        packet.payload if ship else b"",
    )


def assert_adapters_agree(packets, dissect=True):
    """Both adapters over the same traffic: same observations, same ten
    class counters, same malformed reasons.  Returns the observations,
    the packet-side lane and its malformed tallies."""
    packet_lane = BatchLane(dissect_payloads=dissect)
    record_lane = BatchLane(dissect_payloads=dissect)
    packet_malformed: dict = {}
    record_malformed: dict = {}
    records = [lane_record(packet, dissect) for packet in packets]
    observations = []
    for start in range(0, len(packets), 97):
        from_packets = packet_lane.observe_packets(
            packets[start : start + 97], packet_malformed
        )
        from_records = record_lane.observe_records(
            records[start : start + 97], record_malformed
        )
        assert from_packets == from_records, start
        observations += from_packets
    assert packet_lane.counters == record_lane.counters
    assert sum(packet_lane.counters.values()) == len(packets)
    assert packet_malformed == record_malformed
    assert (packet_lane.cache_hits, packet_lane.cache_misses) == (
        record_lane.cache_hits,
        record_lane.cache_misses,
    )
    return observations, packet_lane, packet_malformed


@pytest.mark.parametrize("name", scenario_names())
def test_adapters_agree_on_scenario_traffic(name):
    scenario = Scenario(get_scenario(name).config(duration=HOUR / 6))
    packets = list(scenario.packets())
    assert packets
    assert_adapters_agree(packets)


def wire(proto, transport, payload=b"") -> bytes:
    return HeaderPacket(0.0, IPv4Header(7, 9, proto), transport, payload).to_bytes()


def patched(data: bytes, at: int, value: int, width: int = 1) -> bytes:
    return data[:at] + value.to_bytes(width, "big") + data[at + width :]


def odd_packets():
    """One packet (at least) per rung of the ladder, plus the shapes a
    damaged capture produces; offsets are into a 20-byte IPv4 header."""
    quic = valid_datagrams()[0]
    request = wire(IPProto.UDP, UdpHeader(50000, 443), quic)
    syn_ack = wire(IPProto.TCP, TcpHeader(443, 6000, flags=TcpFlags.SYN | TcpFlags.ACK))
    unreachable = wire(IPProto.ICMP, IcmpHeader(IcmpType.DEST_UNREACHABLE, 3), b"quoted")
    wires = [
        request,
        wire(IPProto.UDP, UdpHeader(443, 50000), quic),  # response
        wire(IPProto.UDP, UdpHeader(443, 443), quic),  # port conflict
        wire(IPProto.UDP, UdpHeader(50000, 443), b"\x00not quic"),  # no-fixed-bit
        wire(IPProto.UDP, UdpHeader(50000, 443)),  # empty payload
        wire(IPProto.UDP, UdpHeader(53, 53), quic),  # unrelated UDP
        patched(request, 24, 7, 2),  # UDP length < 8: no transport header parsed
        request[:26],  # UDP header cut
        patched(request, 2, 0, 2),  # total_length == 0: wire length derived
        syn_ack,
        patched(syn_ack, 2, 0, 2),
        patched(syn_ack, 33, 0x04),  # RST
        patched(syn_ack, 33, 0x02),  # SYN: a TCP request
        patched(syn_ack, 33, 0x10),  # ACK: other TCP
        patched(syn_ack, 32, 0xF0),  # data offset past the end: truncated header
        syn_ack[:30],
        unreachable,
        patched(unreachable, 2, 0, 2),
        patched(unreachable, 20, 8),  # echo request: not backscatter
        unreachable[:25],  # ICMP header cut
        patched(request, 9, 47),  # unknown protocol
    ]
    packets = [
        CapturedPacket.from_bytes(float(index), data)
        for index, data in enumerate(wires)
    ]
    # a generator-built packet: total_length still 0, never serialized
    ip = IPv4Header(7, 9, IPProto.UDP)
    packets.append(HeaderPacket(99.0, ip, UdpHeader(50000, 443), quic))
    return packets


@pytest.mark.parametrize("dissect", [True, False])
def test_adapters_agree_on_odd_packets(dissect):
    packets = odd_packets()
    observations, lane, malformed = assert_adapters_agree(packets, dissect)
    # every class of the ladder is exercised, and the pinned cases mean
    # what their comments say
    assert all(lane.counters.values()), lane.counters
    if dissect:
        assert malformed == {"port-conflict": 1, "no-fixed-bit": 1, "empty": 1}
        assert all(obs[6] is not None for obs in observations if obs[4] == 443)
    else:
        assert malformed == {"port-conflict": 1}
        assert all(obs[6] is None for obs in observations)
        assert lane.cache_hits == lane.cache_misses == 0
    assert all(obs[5] > 0 for obs in observations)  # wire lengths derived


@pytest.fixture(scope="module")
def seam_capture():
    config = ScenarioConfig(seed=29, duration=HOUR // 2, research_sample=1 / 64)
    return list(Scenario(config).packets())


def fresh_sinks():
    return (
        PartialState.initial(AnalysisConfig()),
        SketchTier(width=256, capacity=64, precision=10, seed=29),
    )


def test_sinks_ignore_batch_boundaries(seam_capture):
    observations = BatchLane().observe_packets(seam_capture, {})
    kinds = {obs[0] for obs in observations}
    assert len(kinds) == 4, kinds
    whole_state, whole_tier = fresh_sinks()
    whole_state.apply(observations)
    whole_tier.apply(observations)
    # the exact sink groups each batch by source, so sessions close in
    # another order under another split: its state is compared closed
    # and canonicalized; the sketch sink stays in stream order
    want = state_facts(whole_state), pickle.dumps(whole_tier)
    for k in (0, 1, len(observations) // 3, len(observations) - 1, len(observations)):
        state, tier = fresh_sinks()
        for part in (observations[:k], observations[k:]):
            state.apply(part)
            tier.apply(part)
        assert (state_facts(state), pickle.dumps(tier)) == want, k


def test_one_observation_list_feeds_both_sinks(seam_capture):
    """Classify once, apply twice == each sink classifying for itself."""
    lane = BatchLane()
    state, tier = fresh_sinks()
    for start in range(0, len(seam_capture), 512):
        batch = seam_capture[start : start + 512]
        state.consume_lane(batch, lane)
    state.record_classifier(lane)
    tier_lane = BatchLane()
    for start in range(0, len(seam_capture), 512):
        tier.apply(tier_lane.observe_packets(seam_capture[start : start + 512], {}))

    shared_lane = BatchLane()
    shared_state, shared_tier = fresh_sinks()
    observations = shared_lane.observe_packets(
        seam_capture, shared_state.malformed_counts
    )
    shared_state.note_batch(
        seam_capture[0].timestamp, seam_capture[-1].timestamp, len(seam_capture)
    )
    shared_state.apply(observations)
    shared_tier.apply(observations)
    shared_state.record_classifier(shared_lane)
    assert state_facts(shared_state) == state_facts(state)
    assert pickle.dumps(shared_tier) == pickle.dumps(tier)
    assert (shared_lane.cache_hits, shared_lane.cache_misses) == (
        lane.cache_hits,
        lane.cache_misses,
    )
