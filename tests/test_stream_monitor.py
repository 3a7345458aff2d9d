"""Tests for the online monitor: watermark expiry, incremental
detection, online correlation, bounded memory, and the feeds."""

import threading
import time
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AnalysisConfig
from repro.core.classify import TrafficClassifier
from repro.core.dos import DosDetector, DosThresholds
from repro.core.multivector import CONCURRENT, ISOLATED, SEQUENTIAL
from repro.core.sessions import Sessionizer
from repro.net.packet import IPProto, TcpFlags
from repro.net.pcap import write_records
from repro.stream import (
    AttackEnded,
    FloodAlert,
    LiveFlood,
    OnlineCorrelator,
    StreamAnalyzer,
    StreamConfig,
    StreamResultUnavailable,
    follow_pcap,
)
from repro.stream import analyzer as analyzer_module
from repro.telescope import Scenario, ScenarioConfig
from repro.telescope.genlane import wire_items
from repro.util.batching import batched
from repro.util.timeutil import HOUR
from tests.oracle import monitor_events
from tests.reference.headers import HeaderPacket, IPv4Header, TcpHeader


def backscatter(ts, src=1):
    return HeaderPacket(
        ts, IPv4Header(src, 2, IPProto.TCP), TcpHeader(443, 999, flags=TcpFlags.RST)
    )


def feed(sessionizer, packets):
    classifier = TrafficClassifier()
    for packet in packets:
        sessionizer.add(classifier.classify(packet))


# -- watermark expiry --------------------------------------------------------


def test_expire_uses_strict_gap_rule():
    sessionizer = Sessionizer("tcp-backscatter", timeout=300.0)
    feed(sessionizer, [backscatter(0.0)])
    # watermark exactly timeout behind: a packet at the watermark would
    # still extend the session (gap == timeout is *not* a split)
    assert sessionizer.expire(300.0) == []
    assert sessionizer.open_count == 1
    expired = sessionizer.expire(300.0 + 1e-9)
    assert len(expired) == 1
    assert sessionizer.open_count == 0
    assert sessionizer.closed == expired


def test_expire_only_touches_idle_sessions():
    sessionizer = Sessionizer("tcp-backscatter", timeout=300.0)
    feed(sessionizer, [backscatter(0.0, src=1), backscatter(250.0, src=2)])
    expired = sessionizer.expire(301.0)
    assert [s.source for s in expired] == [1]
    assert [s.source for s in sessionizer.open_sessions()] == [2]


def test_expired_session_equals_gap_closed_session():
    packets = [backscatter(0.0), backscatter(40.0), backscatter(90.0)]
    by_gap = Sessionizer("tcp-backscatter", timeout=300.0)
    feed(by_gap, packets + [backscatter(90.0 + 301.0)])
    by_watermark = Sessionizer("tcp-backscatter", timeout=300.0)
    feed(by_watermark, packets)
    by_watermark.expire(90.0 + 301.0)
    assert by_watermark.closed == by_gap.closed[:1]


def test_evict_closed_recounts_returning_sources():
    sessionizer = Sessionizer("tcp-backscatter", timeout=100.0)
    feed(sessionizer, [backscatter(0.0)])
    sessionizer.expire(500.0)
    assert sessionizer.evict_closed() == 1
    assert sessionizer.closed == []
    # the documented bounded-mode approximation: a fully idle source
    # that returns is counted as a new source
    feed(sessionizer, [backscatter(1000.0)])
    assert sessionizer.source_count == 2


# -- incremental detection ---------------------------------------------------


def land(stamps, pieces, thresholds=None):
    """Feed ``stamps`` (one source's backscatter, non-decreasing) to a
    hooked sessionizer as runs cut at ``pieces``; returns every
    crossing the detector reports and the closed sessions."""
    detector = DosDetector(thresholds)
    crossings = []

    def on_run(session, piece):
        attack = detector.crossing(session, piece)
        if attack is not None:
            crossings.append(attack)

    sessionizer = Sessionizer("tcp-backscatter", timeout=300.0, on_run=on_run)
    cuts = sorted(cut for cut in set(pieces) if 0 < cut < len(stamps))
    for start, stop in zip([0] + cuts, cuts + [len(stamps)]):
        run = tuple(stamps[start:stop])
        n = len(run)
        sessionizer.add_run(1, run, (2,) * n, (443,) * n, (40,) * n, [None] * n)
    sessionizer.flush()
    return crossings, sessionizer.closed


def crossing_stamps():
    """70 RSTs at 1 pps: crosses all three Moore thresholds at t=61."""
    return [float(ts) for ts in range(70)]


@pytest.mark.parametrize(
    "pieces", [(), (10, 20, 30, 40, 50, 60), range(1, 70)], ids=["one-run", "cut", "per-packet"]
)
def test_crossing_fires_exactly_once(pieces):
    crossings, _closed = land(crossing_stamps(), pieces)
    (attack,) = crossings
    # duration > 60 s is the last condition to come true at 1 pps
    assert attack.end == 61.0
    assert attack.vector == "tcp"
    assert attack.victim_ip == 1
    assert attack.start == 0.0
    assert attack.packet_count == 62  # snapshot as of the crossing packet
    assert attack.max_pps == 60 / 60.0


@pytest.mark.parametrize("pieces", [(40, 61), (40, 62)], ids=["first", "last"])
def test_crossing_packet_at_either_end_of_a_piece(pieces):
    """The crossing packet (t=61, index 61) is the first stamp of the
    piece [61:70] or the last of the piece [40:62]; the replay finds it
    either way."""
    crossings, _closed = land(crossing_stamps(), pieces)
    assert [(a.end, a.packet_count) for a in crossings] == [(61.0, 62)]


def test_crossing_ignores_sub_threshold_sessions():
    crossings, closed = land([float(ts) for ts in range(20)], (5, 10))
    assert crossings == []
    assert not DosDetector().thresholds.matches(closed[0])


def test_crossing_rejects_non_backscatter():
    from repro.core.sessions import Session

    detector = DosDetector()
    session = Session(source=1, traffic_class="quic-request", first_ts=0.0)
    with pytest.raises(ValueError):  # request traffic is never a flood
        detector.crossing(session, (70.0,) * 40)


#: steps of a backscatter clock: equal stamps, sub-minute, the minute
#: and the session timeout from both sides, an hour
CROSSING_STEPS = (0.0, 0.25, 59.5, 60.0, 60.5, 299.5, 300.0, 300.5, 3600.0)


@settings(max_examples=200, deadline=None)
@given(
    # (step, repeats): bursts dense enough for ten-fold thresholds' 300 packets a minute
    st.lists(
        st.tuples(st.sampled_from(CROSSING_STEPS), st.integers(min_value=1, max_value=320)),
        min_size=1,
        max_size=10,
    ),
    st.lists(st.integers(min_value=1, max_value=3200), max_size=12),
    st.sampled_from([DosThresholds(), DosThresholds(12.5, 30.0, 0.25), DosThresholds(250, 600.0, 5.0)]),
)
def test_run_crossings_equal_a_per_packet_walk(bursts, pieces, thresholds):
    """The run-level check against a per-packet prefix walk: after each
    packet, does the session so far match?  The first packet after which
    it does is the crossing, once per session."""
    stamps = list(accumulate(step for step, repeats in bursts for _ in range(repeats)))
    expected = []
    for i, stamp in enumerate(stamps):
        if i == 0 or stamp - stamps[i - 1] > 300.0:
            first, count, slots, crossed = stamp, 0, {}, False
        count += 1
        slots[int(stamp // 60)] = slots.get(int(stamp // 60), 0) + 1
        peak = max(slots.values()) / 60
        if not crossed and (
            count > thresholds.min_packets
            and stamp - first > thresholds.min_duration
            and peak > thresholds.min_max_pps
        ):
            expected.append((first, stamp, count, peak))
            crossed = True
    crossings, _closed = land(stamps, pieces, thresholds)
    assert [(a.start, a.end, a.packet_count, a.max_pps) for a in crossings] == expected


def test_monitor_alerts_a_session_once_when_the_clock_steps_back():
    """A mis-ordered capture can walk an alerted session's duration back
    below the threshold; coming back above it is not a second flood."""
    late = [backscatter(30.0)]  # lands in the open session: last_ts 70 -> 30
    packets = [backscatter(float(ts)) for ts in range(71)] + late + [backscatter(71.0)]
    analyzer = StreamAnalyzer()
    events = analyzer.process_batch(packets) + analyzer.finish()
    alerts = [event for event in events if isinstance(event, FloodAlert)]
    assert [(a.crossed_at, a.packet_count) for a in alerts] == [(61.0, 62)]
    assert len([event for event in events if isinstance(event, AttackEnded)]) == 1


# -- online correlation ------------------------------------------------------


def common_flood(victim=9, vector="tcp", start=0.0, end=600.0):
    return LiveFlood(victim_ip=victim, vector=vector, start=start, end=end)


def test_correlator_concurrent():
    correlator = OnlineCorrelator()
    correlator.register_common(common_flood(start=0.0, end=600.0))
    category, partners, gap = correlator.classify(9, start=100.0, end=400.0)
    assert category == CONCURRENT
    assert partners == ("tcp",)
    assert gap is None


def test_correlator_sequential_gap():
    correlator = OnlineCorrelator()
    correlator.register_common(common_flood(start=0.0, end=600.0))
    category, partners, gap = correlator.classify(9, start=900.0, end=1200.0)
    assert category == SEQUENTIAL
    assert partners == ("tcp",)
    assert gap == 300.0


def test_correlator_isolated_on_other_victims():
    correlator = OnlineCorrelator()
    correlator.register_common(common_flood(victim=7))
    assert correlator.classify(9, 0.0, 100.0) == (ISOLATED, (), None)


def test_correlator_uses_live_session_end():
    session_like = Sessionizer("tcp-backscatter", timeout=300.0)
    feed(session_like, [backscatter(0.0, src=9), backscatter(500.0 - 300.0, src=9)])
    (open_session,) = session_like.open_sessions()
    correlator = OnlineCorrelator()
    correlator.register_common(
        LiveFlood(victim_ip=9, vector="icmp", start=0.0, session=open_session)
    )
    category, partners, _gap = correlator.classify(9, start=100.0, end=180.0)
    assert category == CONCURRENT
    assert partners == ("icmp",)


def test_correlator_prunes_only_ended_floods():
    correlator = OnlineCorrelator(horizon=1 * HOUR)
    correlator.register_common(common_flood(victim=1, end=0.0))
    active = LiveFlood(victim_ip=2, vector="tcp", start=0.0)  # never ends
    correlator.register_common(active)
    assert correlator.window_size == 2
    assert correlator.prune(watermark=2 * HOUR) == 1
    assert correlator.window_size == 1
    assert correlator.classify(2, 0.0, 10.0)[0] != ISOLATED


def test_correlator_rejects_bad_horizon():
    with pytest.raises(ValueError):
        OnlineCorrelator(horizon=0.0)


# -- bounded mode ------------------------------------------------------------


@pytest.fixture(scope="module")
def monitor_scenario():
    return Scenario(
        ScenarioConfig(seed=11, duration=3 * HOUR, research_sample=1 / 2048)
    )


def run_monitor(scenario, stream_config):
    analyzer = StreamAnalyzer(
        registry=scenario.internet.registry,
        census=scenario.internet.census,
        greynoise=scenario.internet.greynoise,
        config=AnalysisConfig(),
        stream_config=stream_config,
    )
    events = monitor_events(analyzer, batched(scenario.packets(), 512))
    return analyzer, events


def test_bounded_mode_evicts_and_still_alerts(monitor_scenario, monkeypatch):
    monkeypatch.setattr(analyzer_module, "RETAIN_HOURS", 1)
    analyzer, events = run_monitor(monitor_scenario, StreamConfig(mode="bounded"))
    alerts = [e for e in events if isinstance(e, FloodAlert)]
    ended = [e for e in events if isinstance(e, AttackEnded)]
    assert alerts and len(alerts) == len(ended)

    telemetry = analyzer.telemetry
    assert telemetry.evicted_sessions > 0
    assert telemetry.pruned_sources > 0
    assert telemetry.pruned_hours > 0
    # closed sessions never accumulate
    assert all(s.closed == [] for s in analyzer.state.sessionizers.values())
    # the rolling window keeps at most RETAIN_HOURS + the current hour
    assert len(analyzer.state.hourly_requests) <= 2
    # ... but the totals in the report still cover the whole stream
    assert str(telemetry.packets) in analyzer.stream_report().replace(",", "")

    # result() refuses with a structured error naming the alternatives
    with pytest.raises(StreamResultUnavailable) as exc_info:
        analyzer.result()
    assert exc_info.value.mode == "bounded"
    message = str(exc_info.value)
    assert "stream_report()" in message
    assert "analyzer.telemetry" in message
    assert "analyzer.state.hourly_requests" in message
    assert "StreamConfig(mode=\"exact\")" in message


def test_bounded_alerts_match_exact_alerts(monitor_scenario):
    bounded, _ = run_monitor(monitor_scenario, StreamConfig(mode="bounded"))
    exact, _ = run_monitor(monitor_scenario, StreamConfig(mode="exact"))
    key = lambda a: (a.vector, a.victim_ip, a.start)
    assert sorted(map(key, bounded.alerts)) == sorted(map(key, exact.alerts))


def test_process_batch_after_finish_rejected(monitor_scenario):
    analyzer, _ = run_monitor(monitor_scenario, StreamConfig(mode="bounded"))
    with pytest.raises(RuntimeError):
        analyzer.process_batch([backscatter(0.0)])
    assert analyzer.finish() == []  # idempotent


def test_status_line_and_telemetry(monitor_scenario):
    analyzer, _ = run_monitor(monitor_scenario, StreamConfig(mode="bounded"))
    line = analyzer.status_line()
    assert line.startswith("[status] watermark=")
    assert f"alerts={analyzer.telemetry.alerts}" in line
    # bounded-memory bookkeeping is surfaced in the periodic status line
    assert f"evicted={analyzer.telemetry.evicted_sessions:,}" in line
    assert f"pruned_sources={analyzer.telemetry.pruned_sources:,}" in line
    assert f"pruned_hours={analyzer.telemetry.pruned_hours:,}" in line
    assert analyzer.telemetry.peak_live_sources >= analyzer.telemetry.live_sources


# -- feeds -------------------------------------------------------------------


def small_capture(tmp_path, hours=0.25):
    scenario = Scenario(
        ScenarioConfig(seed=11, duration=hours * HOUR, research_sample=1 / 4096)
    )
    path = tmp_path / "capture.pcap"
    count = write_records(path, wire_items(scenario.records()))
    return scenario, path, count


def test_follow_pcap_reads_complete_capture(tmp_path):
    _scenario, path, count = small_capture(tmp_path)
    batches = list(follow_pcap(path, batch_size=128, idle_timeout=0.0))
    assert sum(len(b) for b in batches) == count
    assert all(batches)
    timestamps = [p.timestamp for batch in batches for p in batch]
    assert timestamps == sorted(timestamps)


def test_follow_pcap_tails_a_growing_file(tmp_path):
    _scenario, path, count = small_capture(tmp_path)
    data = path.read_bytes()
    cut = len(data) * 2 // 3 + 7  # mid-record
    path.write_bytes(data[:cut])

    def writer():
        with open(path, "ab") as handle:
            time.sleep(0.15)
            handle.write(data[cut : cut + 1001])
            handle.flush()
            time.sleep(0.15)
            handle.write(data[cut + 1001 :])

    thread = threading.Thread(target=writer)
    thread.start()
    try:
        batches = list(
            follow_pcap(path, batch_size=64, poll_interval=0.05, idle_timeout=1.0)
        )
    finally:
        thread.join()
    assert sum(len(b) for b in batches) == count


def test_follow_pcap_validates_arguments(tmp_path):
    _scenario, path, _count = small_capture(tmp_path)
    with pytest.raises(ValueError):
        next(follow_pcap(path, batch_size=0))
    with pytest.raises(ValueError):
        next(follow_pcap(path, poll_interval=0.0))


def test_live_batches_rejects_negative_speed():
    scenario = Scenario(ScenarioConfig(seed=1, duration=0.1 * HOUR))
    with pytest.raises(ValueError):
        next(scenario.live_batches(speed=-1.0))


def test_live_batches_paces_against_the_clock():
    scenario = Scenario(
        ScenarioConfig(seed=11, duration=0.1 * HOUR, research_sample=1 / 4096)
    )
    clock = {"now": 0.0}
    naps = []

    def sleep(seconds):
        naps.append(seconds)
        clock["now"] += seconds

    batches = list(
        scenario.live_batches(
            batch_size=256, speed=3600.0, clock=lambda: clock["now"], sleep=sleep
        )
    )
    assert naps, "pacing never slept"
    newest = batches[-1][-1].timestamp
    due = (newest - scenario.config.start) / 3600.0
    assert clock["now"] == pytest.approx(due, abs=1e-6)


# -- CLI watch ---------------------------------------------------------------


def run_cli(argv):
    import io

    from repro.cli import main

    stream = io.StringIO()
    code = main(argv, stream=stream)
    return code, stream.getvalue()


WATCH_FAST = ["--hours", "1.5", "--research-sample", "0.0005", "--seed", "11"]


def test_cli_watch_simulator_feed():
    code, out = run_cli(["watch"] + WATCH_FAST + ["--status-every", "1800"])
    assert code == 0
    assert "[ALERT]" in out
    assert "[ended]" in out
    assert "[status]" in out
    assert "Streaming monitor summary (bounded mode)" in out


def test_cli_watch_pcap_feed_exact(tmp_path):
    _scenario, path, _count = small_capture(tmp_path, hours=1.0)
    code, out = run_cli(
        ["watch"] + WATCH_FAST + ["--pcap", str(path), "--exact"]
    )
    assert code == 0
    assert "[ALERT]" in out
    # exact mode ends with the full batch report
    assert "Overview (Figure 2)" in out
    assert "RETRY audit (Section 6)" in out
