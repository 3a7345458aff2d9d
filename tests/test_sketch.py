"""Property tests for the sketch structures (repro.stream.sketch).

Seeded workloads assert the published error bounds, not just behavior:
count-min never undercounts and respects the epsilon*N bound at the
documented failure probability, space-saving recalls every guaranteed
heavy hitter and its lower bound never exceeds truth, HyperLogLog
lands within 3 sigma of the 1.04/sqrt(m) standard error, and all
three merge deterministically (associative/commutative) across
source-sharded splits (the merges: ``tests/reference/sketch_merge.py``).
"""

import dataclasses
import math
import os
import pickle
import random

import pytest

from repro import obs as metrics
from repro.core.batchlane import BatchLane
from repro.core.classify import PacketClass
from repro.core.dos import DosThresholds
from repro.net.packet import IcmpType, IPProto, TcpFlags
from repro.quic.connection import ClientConnection, ServerConnection
from repro.stream.sketch import (
    CountMinSketch,
    HyperLogLog,
    SketchTier,
    SpaceSaving,
    mix64,
)
from repro.stream.sketch.tier import FloodEpisode
from repro.util.rng import SeededRng
from tests.reference.sketch_merge import merge
from tests.reference.headers import (
    HeaderPacket,
    IPv4Header,
    IcmpHeader,
    TcpHeader,
    UdpHeader,
)


def zipf_workload(seed, keys=2000, updates=30_000):
    """A seeded heavy-tailed stream of (key, count) hits — the regime
    sketches are built for: few heavy keys, a long light tail."""
    rng = SeededRng(seed, "sketch-workload")
    truth: dict = {}
    hits = []
    for _ in range(updates):
        # pareto-ish rank draw: low ranks (heavy keys) dominate
        rank = int(rng.random() ** 3 * keys)
        key = mix64(rank) & 0xFFFFFFFF  # spread keys over the hash space
        hits.append(key)
        truth[key] = truth.get(key, 0) + 1
    return hits, truth


def shard(items, workers):
    """The parallel pipeline's split rule: hash the key, mod workers —
    shards see disjoint key sets."""
    shards = [[] for _ in range(workers)]
    for key in items:
        shards[mix64(key) % workers].append(key)
    return shards


# -- hashing ---------------------------------------------------------------


def test_mix64_is_deterministic_and_spreads():
    assert mix64(0) == mix64(0)
    values = {mix64(key) for key in range(10_000)}
    assert len(values) == 10_000  # bijective mix: no collisions on ints
    assert all(0 <= value < 2**64 for value in values)


# -- count-min -------------------------------------------------------------


@pytest.mark.parametrize("seed", [3, 11, 42])
def test_countmin_never_undercounts(seed):
    hits, truth = zipf_workload(seed)
    sketch = CountMinSketch(width=1024, depth=4, seed=seed)
    for key in hits:
        sketch.update(key)
    assert sketch.total == len(hits)
    for key, count in truth.items():
        assert sketch.estimate(key) >= count


@pytest.mark.parametrize("seed", [3, 11, 42])
def test_countmin_error_bound_holds(seed):
    """error <= epsilon * N per key, failing with probability <= delta;
    allow 2x the expected failure count for finite-sample noise."""
    hits, truth = zipf_workload(seed)
    sketch = CountMinSketch(width=1024, depth=4, seed=seed)
    for key in hits:
        sketch.update(key)
    budget = math.e / sketch.width * sketch.total
    violations = sum(
        1
        for key, count in truth.items()
        if sketch.estimate(key) - count > budget
    )
    allowed = max(1, int(2 * math.exp(-sketch.depth) * len(truth)))
    assert violations <= allowed, (
        f"{violations} of {len(truth)} keys exceeded eps*N={budget:.0f} "
        f"(allowed {allowed})"
    )


def test_countmin_conservative_update_tightens():
    """Conservative update dominates the plain add-to-every-row scheme:
    per-key estimates are never larger and strictly smaller in aggregate
    on a contended (undersized) sketch."""
    hits, truth = zipf_workload(7)
    conservative = CountMinSketch(width=256, depth=4, seed=7)
    plain = CountMinSketch(width=256, depth=4, seed=7)
    for key in hits:
        conservative.update(key)
        # plain count-min: bump every row unconditionally
        for row, salt in enumerate(plain._salts):
            plain._rows[row][mix64(key ^ salt) % plain.width] += 1
    conservative_error = plain_error = 0
    for key, count in truth.items():
        cons = conservative.estimate(key)
        assert count <= cons <= plain.estimate(key)
        conservative_error += cons - count
        plain_error += plain.estimate(key) - count
    assert conservative_error < plain_error


@pytest.mark.parametrize("workers", [1, 2, 3, 4])
def test_countmin_merge_deterministic_across_shards(workers):
    hits, truth = zipf_workload(19)
    shards = shard(hits, workers)
    sketches = []
    for part in shards:
        sketch = CountMinSketch(width=512, depth=4, seed=19)
        for key in part:
            sketch.update(key)
        sketches.append(sketch)

    def merged(order):
        base = CountMinSketch(width=512, depth=4, seed=19)
        for index in order:
            merge(base, sketches[index])
        return base

    forward = merged(range(workers))
    backward = merged(reversed(range(workers)))
    # commutative: any merge order gives identical rows
    assert forward._rows == backward._rows
    assert forward.total == backward.total == len(hits)
    # overestimate-only survives the merge
    for key, count in truth.items():
        assert forward.estimate(key) >= count


def test_countmin_merge_rejects_mismatched():
    with pytest.raises(ValueError):
        merge(CountMinSketch(64, 4, seed=1), CountMinSketch(64, 4, seed=2))
    with pytest.raises(ValueError):
        merge(CountMinSketch(64, 4, seed=1), CountMinSketch(128, 4, seed=1))


def test_countmin_validates_arguments():
    with pytest.raises(ValueError):
        CountMinSketch(width=0)
    with pytest.raises(ValueError):
        CountMinSketch(depth=0)
    with pytest.raises(ValueError):
        CountMinSketch().update(1, 0)


def test_countmin_memory_constant_in_keys():
    small = CountMinSketch(width=512, depth=4, seed=5)
    large = CountMinSketch(width=512, depth=4, seed=5)
    for key in range(10):
        small.update(key)
    for key in range(20_000):
        large.update(key)
    assert small.memory_bytes() == large.memory_bytes()


def test_countmin_pickle_roundtrip():
    sketch = CountMinSketch(width=128, depth=3, seed=9)
    for key in range(500):
        sketch.update(key, key + 1)
    clone = pickle.loads(pickle.dumps(sketch))
    assert all(clone.estimate(k) == sketch.estimate(k) for k in range(500))
    assert clone.total == sketch.total


# -- space-saving ----------------------------------------------------------


@pytest.mark.parametrize("seed", [3, 11, 42])
def test_spacesaving_guaranteed_heavy_hitter_recall(seed):
    """Every key with true count > N/k must be monitored — the
    Metwally guarantee the flood detector leans on."""
    hits, truth = zipf_workload(seed)
    summary = SpaceSaving(capacity=128)
    for key in hits:
        summary.update(key)
    threshold = summary.total / summary.capacity
    for key, count in truth.items():
        if count > threshold:
            assert key in summary, (
                f"heavy hitter {key} ({count} > N/k={threshold:.0f}) lost"
            )


@pytest.mark.parametrize("seed", [3, 11, 42])
def test_spacesaving_bounds_bracket_truth(seed):
    hits, truth = zipf_workload(seed)
    summary = SpaceSaving(capacity=128)
    for key in hits:
        summary.update(key)
    smallest = min(count for _key, count, _error in summary.items())
    assert smallest <= summary.total / summary.capacity
    for key, count, error in summary.items():
        true = truth[key]
        assert count - error <= true <= count


def test_spacesaving_eviction_is_deterministic():
    """Count ties break on the smaller key, so replays are identical."""
    runs = []
    for _ in range(2):
        summary = SpaceSaving(capacity=4)
        for key in (10, 20, 30, 40):
            summary.update(key)
        summary.update(99)  # all four tied at 1: key 10 must go
        runs.append((sorted(summary.items()), summary.evictions))
    assert runs[0] == runs[1]
    assert 10 not in dict((k, c) for k, c, _ in runs[0][0])
    assert 99 in dict((k, c) for k, c, _ in runs[0][0])


@pytest.mark.parametrize("workers", [1, 2, 3, 4])
def test_spacesaving_merge_deterministic_across_shards(workers):
    hits, truth = zipf_workload(23)
    shards = shard(hits, workers)
    summaries = []
    for part in shards:
        summary = SpaceSaving(capacity=256)
        for key in part:
            summary.update(key)
        summaries.append(summary)

    def merged(order):
        base = SpaceSaving(capacity=256)
        for index in order:
            merge(base, summaries[index])
        return base

    forward = merged(range(workers))
    backward = merged(reversed(range(workers)))
    assert sorted(forward.items()) == sorted(backward.items())
    assert forward.total == backward.total == len(hits)
    # bounds survive the merge for every surviving key
    for key, count, error in forward.items():
        if key in truth:
            assert count - error <= truth[key] <= count


def test_spacesaving_merge_associative_within_capacity():
    """With disjoint shard keys and enough capacity the merge is an
    exact union, so grouping cannot matter."""
    hits, _ = zipf_workload(29, keys=300, updates=5_000)
    parts = shard(hits, 3)
    built = []
    for part in parts:
        summary = SpaceSaving(capacity=2048)
        for key in part:
            summary.update(key)
        built.append(summary)
    left = SpaceSaving(capacity=2048)
    merge(left, built[0])
    merge(left, built[1])
    merge(left, built[2])
    inner = SpaceSaving(capacity=2048)
    merge(inner, built[1])
    merge(inner, built[2])
    right = SpaceSaving(capacity=2048)
    merge(right, built[0])
    merge(right, inner)
    assert sorted(left.items()) == sorted(right.items())


def test_spacesaving_merge_rejects_mismatched_capacity():
    with pytest.raises(ValueError):
        merge(SpaceSaving(capacity=8), SpaceSaving(capacity=16))


def test_spacesaving_validates_arguments():
    with pytest.raises(ValueError):
        SpaceSaving(capacity=0)
    with pytest.raises(ValueError):
        SpaceSaving().update(1, 0)


def test_spacesaving_memory_plateaus_at_capacity():
    small = SpaceSaving(capacity=64)
    large = SpaceSaving(capacity=64)
    for key in range(200):
        small.update(key)
    for key in range(5_000):
        large.update(key)
    assert small.memory_bytes() == large.memory_bytes()
    assert len(small) == len(large) == 64


def test_spacesaving_pickle_roundtrip():
    summary = SpaceSaving(capacity=32)
    for key in range(100):
        summary.update(key % 40)
    clone = pickle.loads(pickle.dumps(summary))
    assert sorted(clone.items()) == sorted(summary.items())


# -- HyperLogLog -----------------------------------------------------------


@pytest.mark.parametrize("cardinality", [500, 5_000, 40_000])
def test_hll_within_three_sigma(cardinality):
    """Across seeded trials the estimate stays within 3 sigma of the
    1.04/sqrt(m) standard error (per-trial, not just on average)."""
    for seed in (3, 11, 42):
        hll = HyperLogLog(precision=12, seed=seed)
        rng = SeededRng(seed, f"hll-{cardinality}")
        keys = {int(rng.random() * 2**48) for _ in range(cardinality)}
        for key in keys:
            hll.add(key)
        estimate = hll.estimate()
        tolerance = 3 * (1.04 / math.sqrt(2**12)) * len(keys)
        assert abs(estimate - len(keys)) <= tolerance, (
            f"seed {seed}: |{estimate:.0f} - {len(keys)}| > {tolerance:.0f}"
        )


def test_hll_is_insertion_idempotent():
    hll = HyperLogLog(precision=10, seed=1)
    for _ in range(50):
        hll.add(12345)
    assert hll.estimate() == pytest.approx(1.0, abs=0.5)


@pytest.mark.parametrize("workers", [1, 2, 3, 4])
def test_hll_merge_matches_serial_exactly(workers):
    """Register-wise max is exact: merged shards equal the serial
    sketch register for register, any merge order."""
    keys = [mix64(value) & 0xFFFFFFFF for value in range(8_000)]
    serial = HyperLogLog(precision=11, seed=17)
    for key in keys:
        serial.add(key)
    shards = shard(keys, workers)
    built = []
    for part in shards:
        hll = HyperLogLog(precision=11, seed=17)
        for key in part:
            hll.add(key)
        built.append(hll)
    forward = HyperLogLog(precision=11, seed=17)
    for hll in built:
        merge(forward, hll)
    backward = HyperLogLog(precision=11, seed=17)
    for hll in reversed(built):
        merge(backward, hll)
    assert forward._registers == serial._registers == backward._registers
    assert forward.estimate() == serial.estimate()


def test_hll_merge_rejects_mismatched():
    with pytest.raises(ValueError):
        merge(HyperLogLog(precision=10, seed=1), HyperLogLog(precision=10, seed=2))
    with pytest.raises(ValueError):
        merge(HyperLogLog(precision=10, seed=1), HyperLogLog(precision=11, seed=1))


def test_hll_validates_precision():
    with pytest.raises(ValueError):
        HyperLogLog(precision=3)
    with pytest.raises(ValueError):
        HyperLogLog(precision=19)


def test_hll_memory_constant_in_keys():
    small = HyperLogLog(precision=12, seed=5)
    large = HyperLogLog(precision=12, seed=5)
    small.add(1)
    for key in range(50_000):
        large.add(key)
    assert small.memory_bytes() == large.memory_bytes()


def test_hll_pickle_roundtrip():
    hll = HyperLogLog(precision=10, seed=9)
    for key in range(3_000):
        hll.add(key)
    clone = pickle.loads(pickle.dumps(hll))
    assert clone.estimate() == hll.estimate()


# -- the tier's merge ------------------------------------------------------


@pytest.mark.parametrize("workers", [1, 2, 3, 4])
def test_tier_merge_deterministic_across_workers(workers):
    """SketchTier.merge composes all structure merges under the
    pipeline's disjoint source sharding — any order, same state."""
    rng = SeededRng(31, "tier-merge")
    events = []
    for index in range(4_000):
        source = mix64(index % 600) & 0xFFFFFFFF
        events.append((source, float(index) * 0.5, 64 + index % 128))

    def build(part):
        tier = SketchTier(width=256, capacity=64, precision=10, seed=31)
        for source, ts, length in part:
            kind = (
                PacketClass.QUIC_REQUEST
                if source % 2 == 0
                else PacketClass.QUIC_RESPONSE
            )
            tier.apply([(kind, source, ts, None, None, length, None)])
        return tier

    shards = [[] for _ in range(workers)]
    for event in events:
        shards[mix64(event[0]) % workers].append(event)
    tiers = [build(part) for part in shards]

    def merged(order):
        base = SketchTier(width=256, capacity=64, precision=10, seed=31)
        for index in order:
            merge(base, tiers[index])
        return base

    forward = merged(range(workers))
    backward = merged(reversed(range(workers)))
    sources = {event[0] for event in events}
    for source in sources:
        assert forward.packet_counts.estimate(
            source
        ) == backward.packet_counts.estimate(source)
    assert forward.sources._registers == backward.sources._registers
    assert sorted(forward.heavy["quic"].items()) == sorted(
        backward.heavy["quic"].items()
    )
    assert forward.hourly_requests == backward.hourly_requests
    assert forward.hourly_responses == backward.hourly_responses
    # and the merged tallies still dominate the per-source truth
    truth: dict = {}
    for source, _ts, _length in events:
        truth[source] = truth.get(source, 0) + 1
    for source, count in truth.items():
        assert forward.packet_counts.estimate(source) >= count


def test_tier_merge_rejects_mismatched_sizing():
    with pytest.raises(ValueError):
        merge(SketchTier(width=128, seed=1), SketchTier(width=256, seed=1))


def test_tier_merge_rejects_overlapping_episodes():
    left = SketchTier(width=64, capacity=8, seed=1)
    right = SketchTier(width=64, capacity=8, seed=1)
    observation = (PacketClass.TCP_BACKSCATTER, 42, 0.0, None, None, 0, None)
    left.apply([observation])
    right.apply([observation])
    with pytest.raises(ValueError):
        merge(left, right)


def test_tier_pickle_drops_callbacks():
    fired = []
    tier = SketchTier(width=64, capacity=8, seed=1, on_alert=fired.append)
    tier.apply([(PacketClass.QUIC_REQUEST, 1, 0.0, None, None, 100, None)])
    clone = pickle.loads(pickle.dumps(tier))
    assert clone.on_alert is None and clone.on_ended is None
    assert clone.packet_counts.estimate(1) == 1


# -- the batch kernel vs a naive per-packet oracle ---------------------------
#
# SketchTier.apply hashes each source once per call, folds same-source
# runs into one count-min update and lands backscatter once per (stretch,
# vector, victim).  The oracle below does none of that: one public per-key
# call per packet, in stream order.  On a width-8 sketch with a dozen
# sources, cells are shared, so any reordering of updates to different
# keys (or a fold across an interleaved key) shows up in _rows; with a
# 4-entry space-saving table, evictions land mid-batch; and every ended
# flood records the end of every other live flood at that moment, so an
# end replayed before its partners caught up (or after) shows up too.

#: raised by the fuzz-smoke CI job, like the dissector fuzz suites
ITERS = int(os.environ.get("REPRO_FUZZ_ITERS", "300"))
ORACLE_SEEDS = [1, 2, 3, 5, 8, 13] + list(range(100, 100 + ITERS // 50 - 6))

ORACLE_SIZING = dict(
    width=8,
    depth=2,
    capacity=4,
    precision=4,
    seed=5,
    timeout=30.0,
    thresholds=DosThresholds(min_packets=4, min_duration=2.0, min_max_pps=0.05),
)
ORACLE_RNG = SeededRng(4242)
REQUEST_PAYLOAD = ClientConnection(ORACLE_RNG.child("c")).initial_datagram()
RESPONSE_PAYLOAD = (
    ServerConnection(ORACLE_RNG.child("s"))
    .handle_datagram(
        ClientConnection(ORACLE_RNG.child("c2")).initial_datagram(), 1, 2, now=0.0
    )[0]
    .data
)


def observation_stream(seed, length=1500):
    """Time-ordered ``(kind, source, timestamp, wire_length)`` with
    same-source runs, interleaved colliding sources, flood-dense
    stretches, super-timeout gaps and an hour boundary."""
    rng = random.Random(seed)
    pool = [mix64(index) & 0xFFFFFFFF for index in range(12)]
    source = pool[0]
    timestamp = 3000.0
    stream = []
    for _ in range(length):
        if rng.random() < 0.5:
            source = rng.choice(pool)
        timestamp += rng.choice((0.0, 0.01, 0.5, 3.0))
        if rng.random() < 0.01:
            timestamp += 45.0
        kind = rng.choice(("request", "request", "quic", "quic", "tcp", "icmp"))
        stream.append((kind, source, timestamp, rng.randrange(40, 1400)))
    return stream


def flood_stream(seed, length=1500):
    """Concurrent floods — four (vector, victim) pairs, one victim hit on
    two vectors, all within capacity — each falling silent past the
    timeout now and then while the others go on.  Other sources come
    from two spare ones (calm: they fit the tables) or, every other 300
    observations, from thirty (storm: the tables evict).  So a flood
    splits both against a packet of the same stretch (calm) and against
    one landed before an eviction (storm), inside one batch."""
    rng = random.Random(seed)
    victims = [mix64(1000 + index) & 0xFFFFFFFF for index in range(3)]
    floods = [("quic", victims[0]), ("tcp", victims[0])]
    floods += [("tcp", victims[1]), ("icmp", victims[2])]
    spray = [mix64(2000 + index) & 0xFFFFFFFF for index in range(30)]
    silent_until = dict.fromkeys(floods, 0.0)
    timestamp = 3000.0
    stream = []
    for step in range(length):
        timestamp += rng.choice((0.01, 0.2, 0.5))
        if rng.random() < 0.006:
            silent_until[rng.choice(floods)] = timestamp + rng.uniform(35.0, 50.0)
        awake = [flood for flood in floods if silent_until[flood] <= timestamp]
        if awake and rng.random() < 0.8:
            kind, source = rng.choice(awake)
        else:
            kind = rng.choice(("request", "quic", "tcp", "icmp"))
            source = rng.choice(spray if step // 300 % 2 else spray[:2])
        stream.append((kind, source, timestamp, rng.randrange(40, 1400)))
    return stream


def packets_of(stream, seed):
    """The stream as captured packets, salted with packets that must
    yield no observation on either consume path; and each observation's
    position among the packets."""
    rng = random.Random(seed)

    def captured(timestamp, source, proto, transport, payload=b"", length=0):
        header = IPv4Header(source, 2, proto, total_length=length)
        return HeaderPacket(timestamp, header, transport, payload)

    packets = []
    positions = []
    for kind, source, timestamp, length in stream:
        positions.append(len(packets))
        if kind == "request":
            transport, payload = UdpHeader(50000, 443), REQUEST_PAYLOAD
        elif kind == "quic":
            transport, payload = UdpHeader(443, 50000), RESPONSE_PAYLOAD
        elif kind == "tcp":
            flags = rng.choice((TcpFlags.SYN | TcpFlags.ACK, TcpFlags.RST))
            transport, payload = TcpHeader(443, 999, flags=flags), b""
        else:
            transport, payload = IcmpHeader(IcmpType.DEST_UNREACHABLE), b""
        proto = {"tcp": IPProto.TCP, "icmp": IPProto.ICMP}.get(kind, IPProto.UDP)
        packets.append(captured(timestamp, source, proto, transport, payload, length))
        if rng.random() < 0.2:
            noise = rng.choice(
                (
                    (IPProto.UDP, UdpHeader(53, 53), b"dns"),
                    (IPProto.UDP, UdpHeader(443, 443), REQUEST_PAYLOAD),
                    (IPProto.UDP, UdpHeader(50000, 443), b"\x00not quic"),
                    (IPProto.TCP, TcpHeader(999, 443, flags=TcpFlags.SYN), b""),
                    (IPProto.ICMP, IcmpHeader(IcmpType.ECHO_REQUEST), b""),
                )
            )
            packets.append(captured(timestamp, source, *noise))
    return packets, positions


@dataclasses.dataclass
class Live:
    """What the analyzer's LiveFlood is to the tier: an ``end`` to keep
    fresh while the flood is alerted."""

    end: float


def recording_tier(events):
    """A tier whose callbacks record every alert and end.  An alert's
    :class:`Live` flood stays registered until its end, and each end
    records the ``end`` of every other registered flood at that moment
    (what the analyzer's correlator reads)."""
    live = {}

    def on_alert(vector, victim, start, crossed_at, *rest):
        events.append(("alert", vector, victim, start, crossed_at) + rest)
        flood = live[vector, victim, start] = Live(crossed_at)
        return flood

    def on_ended(vector, victim, start, *rest):
        del live[vector, victim, start]
        others = tuple(sorted((key, flood.end) for key, flood in live.items()))
        events.append(("ended", vector, victim, start) + rest + (others,))

    return SketchTier(**ORACLE_SIZING, on_alert=on_alert, on_ended=on_ended)


def mid_batch(positions, size, earlier, index):
    """Observations ``earlier`` < ``index`` arrive in one batch of ``size``."""
    return (
        earlier is not None
        and 0 <= earlier < index
        and positions[earlier] // size == positions[index] // size
    )


def oracle(stream):
    """Naive reference: per packet, per key, public API only, each live
    flood's ``end`` refreshed per packet.  The tier object only holds
    the identically seeded structures and the recording callbacks; none
    of its consume/apply methods run here.  Also returns the incidents
    the stretch rule exists for: ``("evict", i, i - 1)`` for an
    eviction at observation ``i``, and ``("split", i, j)`` for a gap
    split ending an alerted flood at ``i`` while another live flood's
    ``end`` last changed at ``j``."""
    events = []
    tier = recording_tier(events)
    thresholds = tier.thresholds
    changed = {}  # live flood -> observation index its end last changed at
    incidents = []
    for index, (kind, source, timestamp, length) in enumerate(stream):
        if kind in ("request", "quic"):
            tier.packet_counts.update(source)
            tier.byte_counts.update(source, length)
            tier.sources.add(source)
            hourly = (
                tier.hourly_requests if kind == "request" else tier.hourly_responses
            )
            hourly[int(timestamp // 3600)] = hourly.get(int(timestamp // 3600), 0) + 1
            if kind == "request":
                continue
        tier.victims.add(source)
        heavy = tier.heavy[kind]
        episodes = tier._episodes[kind]

        def end(victim, episode):
            if episode.alerted:
                del changed[kind, victim, episode.first_ts]
                episode.flood.end = episode.last_ts
                packets = max(0, heavy.lower_bound(victim) - episode.base)
                tier.on_ended(
                    kind,
                    victim,
                    episode.first_ts,
                    episode.last_ts,
                    packets,
                    episode.max_minute / 60,
                )
                return True

        count, error, displaced = heavy.update(source)
        if displaced is not None:
            incidents.append(("evict", index, index - 1))
        if displaced in episodes:
            end(displaced, episodes.pop(displaced))
        episode = episodes.get(source)
        if episode is None or timestamp - episode.last_ts > tier.timeout:
            if episode is not None and end(source, episode):
                incidents.append(("split", index, max(changed.values(), default=None)))
            episodes[source] = FloodEpisode(
                timestamp, timestamp, count - error - 1, int(timestamp // 60)
            )
            continue
        episode.last_ts = timestamp
        if int(timestamp // 60) == episode.minute:
            episode.minute_count += 1
            episode.max_minute = max(episode.max_minute, episode.minute_count)
        else:
            episode.minute, episode.minute_count = int(timestamp // 60), 1
        if episode.alerted:
            episode.flood.end = timestamp
            changed[kind, source, episode.first_ts] = index
            continue
        packets = count - error - episode.base
        if (
            packets > thresholds.min_packets
            and timestamp - episode.first_ts > thresholds.min_duration
            and episode.max_minute / 60 > thresholds.min_max_pps
        ):
            episode.alerted = True
            episode.flood = tier.on_alert(
                kind,
                source,
                episode.first_ts,
                timestamp,
                packets,
                episode.max_minute / 60,
            )
            changed[kind, source, episode.first_ts] = index
    return tier, events, incidents


def tier_fields(tier):
    fields = {}
    for name in ("packet_counts", "byte_counts"):
        sketch = getattr(tier, name)
        fields[f"{name}._rows"] = [list(row) for row in sketch._rows]
        fields[f"{name}.total"] = sketch.total
        fields[f"{name}.updates"] = sketch.updates
    for name in ("sources", "victims"):
        hll = getattr(tier, name)
        fields[f"{name}._registers"] = bytes(hll._registers)
        fields[f"{name}.updates"] = hll.updates
    for vector, summary in tier.heavy.items():
        fields[f"heavy[{vector}]"] = (
            summary.items(),
            summary.total,
            summary.evictions,
        )
        fields[f"episodes[{vector}]"] = [
            (victim, dataclasses.astuple(episode))
            for victim, episode in tier._episodes[vector].items()
        ]
    fields["hourly_requests"] = list(tier.hourly_requests.items())
    fields["hourly_responses"] = list(tier.hourly_responses.items())
    return fields


def consume_split(packets, size):
    events = []
    tier = recording_tier(events)
    lane = BatchLane()
    for start in range(0, len(packets), size):
        tier.apply(lane.observe_packets(packets[start : start + size], {}))
    return tier, events


def check_against_oracle(stream, seed, mid_batch_sizes=()):
    """Every split of the packets lands the oracle's state and events.
    At each of ``mid_batch_sizes`` (0: one batch) the stretch rule is
    exercised inside a batch: an eviction after another observation,
    and a gap split ending a flood after another live flood's end
    moved."""
    packets, positions = packets_of(stream, seed)
    reference, reference_events, incidents = oracle(stream)
    want = tier_fields(reference)
    assert any(event[0] == "alert" for event in reference_events)
    assert any(event[0] == "ended" for event in reference_events)
    assert sum(s.evictions for s in reference.heavy.values()) > 0
    for size in mid_batch_sizes:
        size = size or len(packets)
        inside = {kind for kind, i, j in incidents if mid_batch(positions, size, j, i)}
        assert inside == {"evict", "split"}, size
    pickles = set()
    for size in (1, 7, 512, len(packets)):
        tier, events = consume_split(packets, size)
        got = tier_fields(tier)
        for field, value in want.items():
            assert got[field] == value, (field, size)
        assert events == reference_events, size
        pickles.add(pickle.dumps(tier))
    assert len(pickles) == 1
    assert set(vars(tier)) == set(vars(reference))  # no attribute survives a call


@pytest.mark.parametrize("seed", ORACLE_SEEDS)
def test_batch_kernel_equals_naive_oracle_at_every_split(seed):
    check_against_oracle(observation_stream(seed), seed)


@pytest.mark.parametrize("seed", ORACLE_SEEDS)
def test_stretch_breaks_inside_a_batch_equal_the_oracle(seed):
    """Floods that split past the timeout while others stay live, and
    evictions, inside 512-packet batches and inside one batch."""
    check_against_oracle(flood_stream(seed), seed, mid_batch_sizes=(512, 0))


def test_grouping_a_batch_by_source_would_change_cells():
    """The oracle test has teeth: folding *all* of a batch's packets per
    source (instead of consecutive runs) lands different cells, because
    conservative updates to colliding keys do not commute."""
    stream = [obs for obs in observation_stream(1) if obs[0] == "request"]
    in_order = CountMinSketch(width=8, depth=2, seed=5)
    grouped = CountMinSketch(width=8, depth=2, seed=5)
    totals: dict = {}
    for _kind, source, _timestamp, _length in stream:
        in_order.update(source)
        totals[source] = totals.get(source, 0) + 1
    for source, count in totals.items():
        grouped.update(source, count)
    assert grouped.total == in_order.total
    assert grouped._rows != in_order._rows


def test_countmin_cell_updates_compose_to_update():
    direct = CountMinSketch(width=16, depth=3, seed=9)
    composed = CountMinSketch(width=16, depth=3, seed=9)
    cells = composed.cells(77)
    for count in (1, 5, 2):
        assert composed.update_cells(cells, count) == direct.update(77, count)
    assert composed._rows == direct._rows
    # a folded run: one update by the sum, counted as its packets
    composed.update_cells(cells, 9, updates=3)
    for count in (4, 4, 1):
        direct.update(77, count)
    assert composed._rows == direct._rows
    assert (composed.total, composed.updates) == (direct.total, direct.updates)
    with pytest.raises(ValueError):
        composed.update_cells(cells, 0)


# -- HLL running sums ----------------------------------------------------------


def walk_estimate(registers):
    """The register-walk formula, written out: a float harmonic sum over
    every register, linear counting below 2.5 m."""
    m = len(registers)
    alpha = {16: 0.673, 32: 0.697, 64: 0.709}.get(m, 0.7213 / (1.0 + 1.079 / m))
    raw = alpha * m * m / sum(2.0**-value for value in registers)
    zeros = registers.count(0) if raw <= 2.5 * m else 0
    return m * math.log(m / zeros) if zeros else raw


def fresh_estimate(hll):
    """What an instance built from these registers alone says."""
    fresh = HyperLogLog(hll.precision, hll.seed)
    fresh.__setstate__({"_registers": bytearray(hll._registers)})
    return fresh.estimate()


def test_hll_estimate_cache_follows_the_registers():
    hll = HyperLogLog(precision=6, seed=3)
    assert hll.estimate() == 0.0
    before = bytes(hll._registers)
    hll.add(1)  # raises a register of an empty sketch
    assert bytes(hll._registers) != before
    assert hll.estimate() == fresh_estimate(hll) == walk_estimate(hll._registers) > 0.0
    hll.add(1)  # raises nothing: the running sums stay right
    assert hll.estimate() == fresh_estimate(hll)
    other = HyperLogLog(precision=6, seed=3)
    for key in range(100, 160):
        other.add(key)
    hll.estimate()
    merge(hll, other)
    assert hll.estimate() == fresh_estimate(hll) >= other.estimate()
    clone = pickle.loads(pickle.dumps(hll))
    assert clone.estimate() == fresh_estimate(clone) == hll.estimate()


def test_hll_pickled_state_has_no_cache():
    hll = HyperLogLog(precision=6, seed=3)
    keys = {"precision", "seed", "updates", "_salt", "_registers"}
    assert set(hll.__getstate__()) == keys
    cold = pickle.dumps(hll)
    hll.estimate()
    assert set(hll.__getstate__()) == keys
    assert pickle.dumps(hll) == cold


@pytest.mark.parametrize("precision", [4, 6, 12, 14])
def test_hll_running_estimate_equals_the_register_walk(precision):
    """The O(1) estimate is the walk's float, bit for bit: after every
    97th add, after a pickle round trip and after a merge."""
    rng = random.Random(precision)
    hll = HyperLogLog(precision=precision, seed=41)
    for step in range(20_000):
        hll.add(rng.getrandbits(48))
        if step % 97 == 0:
            assert hll.estimate() == walk_estimate(hll._registers), step
    assert max(hll._registers) <= 53 - precision  # the walk itself is exact
    clone = pickle.loads(pickle.dumps(hll))
    assert clone.estimate() == walk_estimate(clone._registers) == hll.estimate()
    other = HyperLogLog(precision=precision, seed=41)
    for _ in range(5_000):
        other.add(rng.getrandbits(48))
    merge(hll, other)
    assert hll.estimate() == walk_estimate(hll._registers)
    for _ in range(97):
        hll.add(rng.getrandbits(48))
    assert hll.estimate() == walk_estimate(hll._registers)


# -- metrics contract --------------------------------------------------------


def test_updates_metric_counts_packets_not_folded_runs():
    stream = observation_stream(21)
    packets, _ = packets_of(stream, 21)
    quic = sum(1 for obs in stream if obs[0] in ("request", "quic"))
    backscatter = sum(1 for obs in stream if obs[0] != "request")
    was = metrics.enabled()
    metrics.REGISTRY.reset()
    metrics.enable()
    try:
        tier = SketchTier(**ORACLE_SIZING)
        lane = BatchLane()
        for start in range(0, len(packets), 64):
            tier.apply(lane.observe_packets(packets[start : start + 64], {}))
            tier.publish_metrics()
        updates = metrics.REGISTRY.get("repro_sketch_updates_total")
        published = {
            structure: updates.value(structure=structure)
            for structure in (
                "countmin-packets",
                "countmin-bytes",
                "hll-sources",
                "hll-victims",
                "spacesaving",
            )
        }
    finally:
        metrics.REGISTRY.reset()
        metrics.set_enabled(was)
    assert published == {
        "countmin-packets": quic,
        "countmin-bytes": quic,
        "hll-sources": quic,
        "hll-victims": backscatter,
        "spacesaving": backscatter,
    }
