"""Tests for the source-sharded parallel pipeline.

The contract under test: source-hash sharding is *exact*.  A serial
run and a parallel run over the same stream must produce identical
``PipelineResult`` contents (session lists, attack lists, hourly
series, report text).  Dissector-cache hit/miss telemetry is the one
documented exception — each worker warms its own cache, so the
hit/miss split depends on the sharding while the sum does not.
"""

import multiprocessing
import pickle

import pytest

from repro.net.ipv4 import IPProto, IPv4Header
from repro.net.packet import CapturedPacket
from repro.net.udp import UdpHeader
from repro.util.rng import SeededRng
from repro.util.timeutil import HOUR
from repro.quic.connection import ClientConnection
from repro.core import AnalysisConfig, PartialState, QuicsandPipeline
from repro.core.classify import PacketClass, TrafficClassifier
from repro.core import parallel
from repro.core.parallel import run_sharded, shard_of
from repro.core.pipeline import run_serial
from repro.core.report import build_report
from repro.telescope import Scenario, ScenarioConfig

RNG = SeededRng(777)
REQUEST_PAYLOAD = ClientConnection(RNG.child("c")).initial_datagram()


def quic_request(ts, src, dst=2):
    return CapturedPacket(
        ts, IPv4Header(src, dst, IPProto.UDP), UdpHeader(50000, 443), REQUEST_PAYLOAD
    )


def consume_all(state, packets):
    classifier = TrafficClassifier()
    state.consume(list(packets), classifier)
    state.record_classifier(classifier)
    state.close()
    return state


# -- serial vs parallel equivalence -----------------------------------------


@pytest.fixture(scope="module")
def scenario():
    return Scenario(ScenarioConfig(duration=2 * HOUR, research_sample=1.0 / 512))


@pytest.fixture(scope="module")
def packets(scenario):
    return list(scenario.packets())


def run_pipeline(scenario, packets, workers):
    pipeline = QuicsandPipeline(
        registry=scenario.internet.registry,
        census=scenario.internet.census,
        greynoise=scenario.internet.greynoise,
        config=AnalysisConfig(workers=workers),
    )
    return pipeline.process(iter(packets))


def test_serial_and_parallel_results_identical(scenario, packets):
    serial = run_pipeline(scenario, packets, workers=1)
    parallel = run_pipeline(scenario, packets, workers=4)

    assert serial.total_packets == parallel.total_packets == len(packets)
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


def test_worker_counts_two_and_three_agree(scenario, packets):
    """Shard-count independence beyond the 1-vs-4 case."""
    two = run_pipeline(scenario, packets, workers=2)
    three = run_pipeline(scenario, packets, workers=3)
    assert two.request_sessions == three.request_sessions
    assert two.quic_attacks == three.quic_attacks
    assert two.hourly_requests == three.hourly_requests


def test_run_sharded_empty_stream():
    state = run_sharded(iter(()), AnalysisConfig(), workers=2)
    assert state.total_packets == 0
    assert state.window_start is None
    assert all(not s.closed for s in state.sessionizers.values())


# -- PartialState.merge ------------------------------------------------------


def test_merge_empty_shard_is_identity():
    full = consume_all(
        PartialState.initial(AnalysisConfig()),
        [quic_request(float(i), src=9) for i in range(5)],
    )
    empty = PartialState.initial(AnalysisConfig())
    empty.close()
    before_sessions = [
        s for sz in full.sessionizers.values() for s in sz.closed
    ]
    full.merge(empty)
    after_sessions = [s for sz in full.sessionizers.values() for s in sz.closed]
    assert full.total_packets == 5
    assert before_sessions == after_sessions
    assert full.hourly_requests == {0: 5}

    # and the symmetric direction: empty absorbing a full shard
    other = consume_all(
        PartialState.initial(AnalysisConfig()),
        [quic_request(float(i), src=9) for i in range(5)],
    )
    base = PartialState.initial(AnalysisConfig())
    base.close()
    base.merge(other)
    assert base.total_packets == 5
    assert base.quic_source_packets == {9: 5}


def test_merge_single_source_shards():
    a = consume_all(
        PartialState.initial(AnalysisConfig()),
        [quic_request(0.0, src=10), quic_request(30.0, src=10)],
    )
    b = consume_all(
        PartialState.initial(AnalysisConfig()),
        [quic_request(10.0, src=20)],
    )
    a.merge(b)
    assert a.total_packets == 3
    assert a.quic_source_packets == {10: 2, 20: 1}
    sessions = a.sessionizers[PacketClass.QUIC_REQUEST].closed
    assert {s.source for s in sessions} == {10, 20}
    assert a.sweep.packet_count == 3
    assert a.sweep.source_count == 2


def test_merge_overlapping_hours_adds():
    hour1 = HOUR + 1.0
    a = consume_all(
        PartialState.initial(AnalysisConfig()),
        [quic_request(0.0, src=10), quic_request(hour1, src=10)],
    )
    b = consume_all(
        PartialState.initial(AnalysisConfig()),
        [quic_request(1.0, src=20), quic_request(hour1 + 1.0, src=20)],
    )
    a.merge(b)
    assert a.hourly_requests == {0: 2, 1: 2}
    assert a.per_source_hourly == {10: {0: 1, 1: 1}, 20: {0: 1, 1: 1}}


def test_merge_rejects_overlapping_sources():
    a = consume_all(PartialState.initial(AnalysisConfig()), [quic_request(0.0, src=10)])
    b = consume_all(PartialState.initial(AnalysisConfig()), [quic_request(1.0, src=10)])
    with pytest.raises(ValueError):
        a.merge(b)


def test_merge_window_bounds():
    a = consume_all(PartialState.initial(AnalysisConfig()), [quic_request(5.0, src=1)])
    b = consume_all(
        PartialState.initial(AnalysisConfig()),
        [quic_request(1.0, src=2), quic_request(9.0, src=2)],
    )
    a.merge(b)
    assert a.window_start == 1.0
    assert a.window_end == 9.0


# -- sharding ----------------------------------------------------------------


def test_shard_of_is_stable_and_in_range():
    for source in (0, 1, 0xFFFFFFFF, 0x0A000001, 12345678):
        for workers in (1, 2, 4, 7):
            shard = shard_of(source, workers)
            assert 0 <= shard < workers
            assert shard == shard_of(source, workers)


# -- resource exhaustion and interruption ------------------------------------


class SegmentSpy:
    """Stands in for ``SharedMemory``: the ``fail_at``-th ``create``
    raises ``OSError``; every other call goes to the real class, and
    each created segment's ``unlink`` is recorded."""

    def __init__(self, monkeypatch, fail_at=None):
        self.real = parallel._shared_memory.SharedMemory
        self.fail_at = fail_at
        self.created = []
        self.unlinked = []
        monkeypatch.setattr(parallel._shared_memory, "SharedMemory", self)

    def __call__(self, *args, create=False, **kwargs):
        if not create:
            return self.real(*args, **kwargs)
        if len(self.created) + 1 == self.fail_at:
            raise OSError(28, "No space left on device")
        segment = self.real(*args, create=True, **kwargs)
        self.created.append(segment.name)
        unlink = segment.unlink

        def recording_unlink():
            unlink()
            self.unlinked.append(segment.name)

        segment.unlink = recording_unlink
        return segment


def forbid_processes(monkeypatch):
    def start(process):
        raise AssertionError(f"started {process.name}")

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", start)


def shard_workers():
    return [
        child
        for child in multiprocessing.active_children()
        if child.name.startswith("quicsand-shard-")
    ]


def comparable(state):
    state.canonicalize()
    return pickle.dumps(state)


@pytest.fixture(scope="module")
def serial_state(packets):
    return comparable(run_serial(iter(packets), AnalysisConfig()))


def test_no_shared_memory_falls_back_to_the_in_process_loop(
    packets, serial_state, monkeypatch
):
    spy = SegmentSpy(monkeypatch, fail_at=1)
    forbid_processes(monkeypatch)
    state = run_sharded(iter(packets), AnalysisConfig(), workers=2)
    assert comparable(state) == serial_state
    assert spy.created == []


def test_failed_ring_allocation_unlinks_what_it_created(
    packets, serial_state, monkeypatch
):
    spy = SegmentSpy(monkeypatch, fail_at=2)
    forbid_processes(monkeypatch)
    state = run_sharded(iter(packets), AnalysisConfig(), workers=2)
    assert comparable(state) == serial_state
    assert len(spy.created) == 1
    assert spy.unlinked == spy.created


def test_failed_generation_ring_allocation_unlinks_what_it_created(monkeypatch):
    config = ScenarioConfig(duration=HOUR / 4, research_sample=1.0 / 512)
    serial = list(Scenario(config).records())
    spy = SegmentSpy(monkeypatch, fail_at=2)
    forbid_processes(monkeypatch)
    assert list(Scenario(config).records(workers=2)) == serial
    assert len(spy.created) == 1
    assert spy.unlinked == spy.created


def test_stream_error_stops_workers_and_frees_segments(packets, monkeypatch):
    spy = SegmentSpy(monkeypatch)

    def failing_stream():
        yield from packets[:2000]
        raise ValueError("capture went away")

    with pytest.raises(ValueError, match="capture went away"):
        run_sharded(failing_stream(), AnalysisConfig(), workers=2)
    assert not shard_workers()
    assert len(spy.created) == 2
    assert sorted(spy.unlinked) == sorted(spy.created)


def test_interrupted_sharded_generator_stops_workers_before_joining(
    scenario, packets, monkeypatch
):
    """``report --faults interrupt=p --gen-workers 2``: the injector
    abandons the sharded generator mid-stream while its workers sit on
    a full ring, so they are terminated first — a join that precedes
    the terminate would wait out its timeout on each of them."""
    from repro.faults import FaultInjector, FaultSpec

    spec = FaultSpec.parse("interrupt=0.001")
    serial = list(FaultInjector(spec, 7).wrap(iter(packets)))
    # cut short enough that neither worker's ring (8 x 512 records) has
    # room for the rest of its share
    assert 0 < len(serial) < 4096 < len(packets) // 4

    spy = SegmentSpy(monkeypatch)
    teardown = []
    for step in ("terminate", "join"):
        real = getattr(multiprocessing.process.BaseProcess, step)

        def recorded(process, *args, _real=real, _step=step, **kwargs):
            if process.name.startswith("quicsand-gen-"):
                teardown.append((process.name, _step))
            return _real(process, *args, **kwargs)

        monkeypatch.setattr(multiprocessing.process.BaseProcess, step, recorded)

    sharded = list(FaultInjector(spec, 7).wrap(scenario.packets(workers=2)))
    assert [p.to_bytes() for p in sharded] == [p.to_bytes() for p in serial]
    first_step = {}
    for name, step in teardown:
        first_step.setdefault(name, step)
    assert first_step == {"quicsand-gen-0": "terminate", "quicsand-gen-1": "terminate"}
    assert not [
        child
        for child in multiprocessing.active_children()
        if child.name.startswith("quicsand-gen-")
    ]
    assert len(spy.created) == 2
    assert sorted(spy.unlinked) == sorted(spy.created)
