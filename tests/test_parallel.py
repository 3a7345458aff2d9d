"""Tests for the partitioned parallel pipeline and the one state merge.

The contract under test: a partitioned run is *exact*.  Each worker
runs the serial fused loop over one part of a scenario's generation
units, and ``merge_states`` rejoins the closed states into the serial
state, so a serial and a parallel run of the same scenario produce
identical ``PipelineResult`` contents (session lists, attack lists,
hourly series, report text).  Dissector-cache hit/miss telemetry is the
one documented exception — each worker warms its own cache, so the
hit/miss split depends on the partition while the sum does not.
"""

import dataclasses
import multiprocessing
import os
import signal
from concurrent.futures.process import BrokenProcessPool
from functools import partial

import pytest

from repro.net.addresses import IPv4Network
from repro.net.packet import IPProto
from repro.util.rng import SeededRng
from repro.util.timeutil import HOUR
from repro.quic.connection import ClientConnection
from repro.core import AnalysisConfig, PartialState, QuicsandPipeline
from repro.core.classify import PacketClass, TrafficClassifier
from repro.core.parallel import run_parts
from repro.core.pipeline import merge_states, run_record_batches
from repro.core.report import build_report
from repro.telescope import Scenario, ScenarioConfig
from tests.reference.headers import HeaderPacket, IPv4Header, UdpHeader

RNG = SeededRng(777)
REQUEST_PAYLOAD = ClientConnection(RNG.child("c")).initial_datagram()
CONFIG = ScenarioConfig(duration=2 * HOUR, research_sample=1.0 / 512)


def quic_request(ts, src, dst=2):
    return HeaderPacket(
        ts, IPv4Header(src, dst, IPProto.UDP), UdpHeader(50000, 443), REQUEST_PAYLOAD
    )


def consume_all(state, packets):
    classifier = TrafficClassifier()
    state.consume(list(packets), classifier)
    state.record_classifier(classifier)
    state.close()
    return state


def requests(*stamps, src):
    return consume_all(
        PartialState.initial(AnalysisConfig()),
        [quic_request(ts, src=src) for ts in stamps],
    )


# -- serial vs parallel equivalence -----------------------------------------


@pytest.fixture(scope="module")
def scenario():
    return Scenario(CONFIG)


def run_pipeline(scenario, workers):
    pipeline = QuicsandPipeline(
        registry=scenario.internet.registry,
        census=scenario.internet.census,
        greynoise=scenario.internet.greynoise,
        config=AnalysisConfig(workers=workers),
    )
    # a fresh scenario per run: generation consumes its random streams
    return pipeline.process_scenario(Scenario(CONFIG))


def test_serial_and_parallel_results_identical(scenario):
    serial = run_pipeline(scenario, workers=1)
    parallel = run_pipeline(scenario, workers=4)

    assert serial.total_packets == parallel.total_packets > 0
    assert serial.window_start == parallel.window_start
    assert serial.window_end == parallel.window_end

    # session lists (dataclass equality, canonical order)
    assert serial.request_sessions == parallel.request_sessions
    assert serial.response_sessions == parallel.response_sessions
    assert serial.tcp_sessions == parallel.tcp_sessions
    assert serial.icmp_sessions == parallel.icmp_sessions

    # attack lists and downstream correlation
    assert serial.quic_attacks == parallel.quic_attacks
    assert serial.common_attacks == parallel.common_attacks
    assert (
        serial.multivector.category_shares()
        == parallel.multivector.category_shares()
    )

    # hourly series and research identification
    assert serial.hourly_requests == parallel.hourly_requests
    assert serial.hourly_responses == parallel.hourly_responses
    assert serial.hourly_research == parallel.hourly_research
    assert serial.hourly_other_quic == parallel.hourly_other_quic
    assert serial.research_sources == parallel.research_sources
    assert serial.research_packets == parallel.research_packets

    # timeout sweep (Figure 4) over the full candidate range
    assert serial.timeout_sweep.sweep(range(1, 61)) == parallel.timeout_sweep.sweep(
        range(1, 61)
    )
    assert serial.timeout_sweep.packet_count == parallel.timeout_sweep.packet_count

    # class counters agree exactly (the memo hit/miss telemetry lives
    # in the metrics registry, not in class_counts)
    assert serial.class_counts == parallel.class_counts
    assert not any(
        key.startswith("dissect-cache-") for key in serial.class_counts
    )

    # the rendered report is bit-identical
    weight = scenario.truth.research_weight
    assert build_report(serial, research_weight=weight) == build_report(
        parallel, research_weight=weight
    )


def test_worker_counts_two_and_three_agree(scenario):
    """Part-count independence beyond the 1-vs-4 case."""
    two = run_pipeline(scenario, workers=2)
    three = run_pipeline(scenario, workers=3)
    assert two.request_sessions == three.request_sessions
    assert two.quic_attacks == three.quic_attacks
    assert two.hourly_requests == three.hourly_requests


def no_batches():
    return iter(())


def test_run_sharded_empty_stream():
    state = run_parts([no_batches, no_batches], AnalysisConfig())
    assert state.total_packets == 0
    assert state.window_start is None
    assert all(not s.closed for s in state.sessionizers.values())


# -- merge_states: the one merge ---------------------------------------------


def test_merge_empty_shard_is_identity():
    full = requests(*map(float, range(5)), src=9)
    empty = PartialState.initial(AnalysisConfig())
    empty.close()
    before_sessions = [s for sz in full.sessionizers.values() for s in sz.closed]
    for parts in ([full, empty], [empty, full]):
        merged = merge_states(parts, AnalysisConfig())
        after_sessions = [s for sz in merged.sessionizers.values() for s in sz.closed]
        assert merged.total_packets == 5
        assert before_sessions == after_sessions
        assert merged.hourly_requests == {0: 5}
        assert merged.quic_source_packets == {9: 5}
    # the inputs are not mutated
    assert full.total_packets == 5 and empty.total_packets == 0


def test_merge_single_source_shards():
    merged = merge_states(
        [requests(0.0, 30.0, src=10), requests(10.0, src=20)], AnalysisConfig()
    )
    assert merged.total_packets == 3
    assert merged.quic_source_packets == {10: 2, 20: 1}
    sessions = merged.sessionizers[PacketClass.QUIC_REQUEST].closed
    assert {s.source for s in sessions} == {10, 20}
    assert merged.sweep.packet_count == 3
    assert merged.sweep.source_count == 2


def test_merge_overlapping_hours_adds():
    hour1 = HOUR + 1.0
    merged = merge_states(
        [requests(0.0, hour1, src=10), requests(1.0, hour1 + 1.0, src=20)],
        AnalysisConfig(),
    )
    assert merged.hourly_requests == {0: 2, 1: 2}
    assert merged.per_source_hourly == {10: {0: 1, 1: 1}, 20: {0: 1, 1: 1}}


def test_merge_window_bounds():
    merged = merge_states(
        [requests(5.0, src=1), requests(1.0, 9.0, src=2)], AnalysisConfig()
    )
    assert merged.window_start == 1.0
    assert merged.window_end == 9.0


def test_merge_joins_a_session_split_across_parts():
    """Two parts share a source whose session spans the cut: each part
    closes a fragment, the merge joins them into the serial session."""
    stamps = (0.0, 50.0, 100.0, 200.0, 900.0)
    serial = requests(*stamps, src=10)
    parts = [requests(0.0, 100.0, src=10), requests(50.0, 200.0, 900.0, src=10)]
    merged = merge_states(parts, AnalysisConfig())
    (joined, last) = merged.sessionizers[PacketClass.QUIC_REQUEST].closed
    assert (joined.first_ts, joined.last_ts, joined.packet_count) == (0.0, 200.0, 4)
    assert (last.first_ts, last.packet_count) == (900.0, 1)
    assert (
        merged.sessionizers[PacketClass.QUIC_REQUEST].closed
        == serial.sessionizers[PacketClass.QUIC_REQUEST].closed
    )
    assert merged.sweep.sweep(range(1, 61)) == serial.sweep.sweep(range(1, 61))
    assert merged.sessionizers[PacketClass.QUIC_REQUEST].source_count == 1


#: an hour of the /9, split by destination below
LAW_CONFIG = ScenarioConfig(seed=11, duration=HOUR, research_sample=1 / 2048)
#: prefix lengths of K contiguous destination tiles of the /9, in
#: address order (K = 3 halves the first /10 only)
TILINGS = {1: (9,), 2: (10, 10), 3: (10, 11, 11), 4: (11, 11, 11, 11)}
#: helper objects compared by identity in PipelineResult (same set as
#: tests/test_lane_equivalence.py)
_IDENTITY_FIELDS = {"config", "timeout_sweep", "quic_detector", "common_detector"}


def law_pipeline(scenario):
    return QuicsandPipeline(
        registry=scenario.internet.registry,
        census=scenario.internet.census,
        greynoise=scenario.internet.greynoise,
        config=AnalysisConfig(),
    )


@pytest.fixture(scope="module")
def law():
    """``(scenario, lane batches, serial result)`` of ``LAW_CONFIG``."""
    scenario = Scenario(LAW_CONFIG)
    batches = list(scenario.lane_batches())
    serial = law_pipeline(scenario).process_record_batches(iter(batches))
    return scenario, batches, serial


def tile_of(net, count):
    """``dst -> part``: the part of the K contiguous tiles of ``net``
    (``TILINGS[count]``) that holds ``dst``."""
    tiles, cursor = [], net.network
    for prefix_len in TILINGS[count]:
        tiles.append(IPv4Network(cursor, prefix_len))
        cursor += tiles[-1].size
    assert cursor == net.network + net.size
    return lambda dst: next(i for i, tile in enumerate(tiles) if dst in tile)


def destination_parts(batches, part_of, count):
    """``batches`` split by destination (lane field 2) into ``count``
    parts, each a sub-sequence of the stream in the stream's batches."""
    parts = [[] for _ in range(count)]
    for batch in batches:
        split = [[] for _ in range(count)]
        for record in batch:
            split[part_of(record[2])].append(record)
        for part, records in zip(parts, split):
            if records:
                part.append(records)
    return parts


def destination_states(law, count, part_of=None):
    scenario, batches, _serial = law
    part_of = part_of or tile_of(scenario.telescope.prefix, count)
    return [
        run_record_batches(part, AnalysisConfig())
        for part in destination_parts(batches, part_of, count)
    ]


@pytest.mark.parametrize(
    "count, part_of",
    [(1, None), (2, None), (3, None), (4, None), (3, lambda dst: dst % 3)],
    ids=["tiles-1", "tiles-2", "tiles-3", "tiles-4", "dst-mod-3"],
)
def test_destination_partition_merges_to_the_serial_result(law, count, part_of):
    """K destination tiles of the /9 — or any other split by destination
    — each run alone and merged, are the serial run: every result field,
    the whole timeout sweep and the report bytes."""
    scenario, _batches, serial = law
    states = destination_states(law, count, part_of)
    assert len(states) == count
    merged = law_pipeline(scenario).finalize_state(merge_states(states, AnalysisConfig()))
    assert serial.total_packets > 0
    for field in dataclasses.fields(serial):
        if field.name not in _IDENTITY_FIELDS:
            assert getattr(merged, field.name) == getattr(serial, field.name), field.name
    assert merged.timeout_sweep.sweep(range(1, 61)) == serial.timeout_sweep.sweep(range(1, 61))
    weight = scenario.truth.research_weight
    assert build_report(merged, research_weight=weight) == build_report(
        serial, research_weight=weight
    )


def test_merge_states_leaves_its_inputs_unchanged(law):
    """Callers merge states they read again: every input pickles to the
    same bytes after the merge."""
    states = destination_states(law, 3)
    before = [state.snapshot_bytes() for state in states]
    merged = merge_states(states, AnalysisConfig())
    assert merged.total_packets == sum(state.total_packets for state in states)
    assert [state.snapshot_bytes() for state in states] == before


def test_merge_rejects_empty_input():
    with pytest.raises(ValueError, match="nothing to merge"):
        merge_states([], AnalysisConfig())


# -- failure and worker death -------------------------------------------------


def part_batches(scenario_config, fail_after=None, die_after=None):
    """Part 0 of 2 of ``scenario_config``, optionally failing or
    killing its own process after that many batches."""
    feed = Scenario(scenario_config).parts(2)[0]
    for index, batch in enumerate(feed()):
        if index == fail_after:
            raise ValueError("capture went away")
        if index == die_after:
            os.kill(os.getpid(), signal.SIGKILL)
        yield batch


def quarter_hour():
    return ScenarioConfig(duration=HOUR / 4, research_sample=1.0 / 512)


def test_stream_error_stops_workers_and_frees_segments():
    """A part whose feed raises fails the run with an error that names
    the part and carries the worker's traceback; no worker outlives it."""
    config = quarter_hour()
    feeds = [
        partial(part_batches, config, fail_after=1),
        Scenario(config).parts(2)[1],
    ]
    with pytest.raises(RuntimeError, match="part 0 of 2") as raised:
        run_parts(feeds, AnalysisConfig())
    remote = raised.value.__cause__
    assert isinstance(remote, ValueError)
    traceback_text = str(remote.__cause__)
    assert "capture went away" in traceback_text
    assert "part_batches" in traceback_text
    assert not multiprocessing.active_children()


@pytest.mark.skipif(not hasattr(signal, "SIGKILL"), reason="needs SIGKILL")
def test_killed_part_fails_the_run_instead_of_hanging():
    config = quarter_hour()
    feeds = [
        partial(part_batches, config, die_after=1),
        Scenario(config).parts(2)[1],
    ]
    with pytest.raises((BrokenProcessPool, RuntimeError)):
        run_parts(feeds, AnalysisConfig())
    assert not multiprocessing.active_children()
