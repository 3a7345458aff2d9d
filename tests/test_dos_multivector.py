"""Tests for DoS detection thresholds and multi-vector correlation."""

import pytest

from repro.core.dos import DosDetector, DosThresholds, FloodAttack
from repro.core.multivector import (
    CONCURRENT,
    ISOLATED,
    SEQUENTIAL,
    correlate_attacks,
)
from repro.core.sessions import Session


def make_session(
    source=1,
    traffic_class="quic-response",
    start=0.0,
    duration=120.0,
    packets=50,
    peak_per_minute=40,
):
    session = Session(
        source=source,
        traffic_class=traffic_class,
        first_ts=start,
        last_ts=start + duration,
        packet_count=packets,
    )
    session.minute_slots = {int(start // 60): peak_per_minute}
    return session


def make_attack(victim=1, vector="quic", start=0.0, end=255.0, packets=100):
    session = make_session(victim, f"{vector}-backscatter" if vector != "quic" else "quic-response", start, end - start, packets)
    return FloodAttack(
        victim_ip=victim,
        vector=vector,
        start=start,
        end=end,
        packet_count=packets,
        max_pps=1.0,
        session=session,
    )


# -- thresholds ------------------------------------------------------------


def test_moore_defaults():
    thresholds = DosThresholds()
    assert thresholds.min_packets == 25
    assert thresholds.min_duration == 60.0
    assert thresholds.min_max_pps == 0.5


def test_attack_passes_all_thresholds():
    assert DosThresholds().matches(make_session())


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(packets=20),                  # too few packets
        dict(duration=45.0),               # too short
        dict(peak_per_minute=20),          # 0.33 max pps, too slow
    ],
)
def test_below_any_threshold_rejected(kwargs):
    assert not DosThresholds().matches(make_session(**kwargs))


def test_thresholds_are_strict_inequalities():
    # exactly 25 packets / 60 s / 0.5 pps must NOT match
    session = make_session(packets=25, duration=60.0, peak_per_minute=30)
    assert not DosThresholds().matches(session)


def test_detector_classifies_and_counts():
    detector = DosDetector()
    attack_session = make_session(source=10)
    small_session = make_session(source=11, packets=5, duration=5, peak_per_minute=5)
    detector.consider(attack_session)
    detector.consider(small_session)
    assert len(detector.attacks) == 1
    assert len(detector.rejected_sessions) == 1
    assert detector.detection_rate == 0.5
    assert detector.attacks[0].victim_ip == 10


def test_detector_rejects_non_backscatter_class():
    detector = DosDetector()
    with pytest.raises(ValueError):
        detector.consider(make_session(traffic_class="quic-request"))


def test_weight_sweep_monotone_counts():
    sessions = [
        make_session(source=i, packets=30 + 10 * i, duration=100 + 30 * i, peak_per_minute=35 + 5 * i)
        for i in range(20)
    ]
    counts = [
        len(DosDetector(DosThresholds(25 * w, 60.0 * w, 0.5 * w)).detect_all(sessions))
        for w in (0.3, 1.0, 2.0, 5.0)
    ]
    assert counts == sorted(counts, reverse=True)
    assert counts[0] >= counts[1]


# -- flood attack helpers ------------------------------------------------------


def test_overlap_and_gap():
    a = make_attack(start=0, end=100)
    b = make_attack(start=50, end=150, vector="tcp")
    c = make_attack(start=200, end=300, vector="tcp")
    assert a.overlap_seconds(b) == 50
    assert a.overlaps(b)
    assert not a.overlaps(c)
    assert a.gap_to(c) == 100
    assert c.gap_to(a) == 100
    assert a.gap_to(b) == 0.0


def test_one_second_concurrency_rule():
    a = make_attack(start=0, end=100)
    b = make_attack(start=99.5, end=200, vector="tcp")
    assert not a.overlaps(b, min_overlap=1.0)
    b2 = make_attack(start=99.0, end=200, vector="tcp")
    assert a.overlaps(b2, min_overlap=1.0)


# -- correlation ------------------------------------------------------------


def test_correlate_categories():
    quic = [
        make_attack(victim=1, start=100, end=200),   # concurrent
        make_attack(victim=2, start=100, end=200),   # sequential
        make_attack(victim=3, start=100, end=200),   # isolated
    ]
    common = [
        make_attack(victim=1, vector="tcp", start=150, end=400),
        make_attack(victim=2, vector="tcp", start=5000, end=6000),
    ]
    analysis = correlate_attacks(quic, common)
    categories = {c.attack.victim_ip: c.category for c in analysis.correlated}
    assert categories == {1: CONCURRENT, 2: SEQUENTIAL, 3: ISOLATED}
    shares = analysis.category_shares()
    assert shares[CONCURRENT] == pytest.approx(1 / 3)


def test_overlap_share_full_and_partial():
    quic = [make_attack(victim=1, start=100, end=200)]
    common = [make_attack(victim=1, vector="tcp", start=0, end=500)]
    analysis = correlate_attacks(quic, common)
    assert analysis.overlap_shares == [1.0]

    common_partial = [make_attack(victim=1, vector="tcp", start=150, end=500)]
    analysis2 = correlate_attacks(quic, common_partial)
    assert analysis2.overlap_shares == [pytest.approx(0.5)]


def test_overlap_share_merges_partners():
    quic = [make_attack(victim=1, start=0, end=100)]
    common = [
        make_attack(victim=1, vector="tcp", start=0, end=30),
        make_attack(victim=1, vector="icmp", start=20, end=60),
    ]
    analysis = correlate_attacks(quic, common)
    assert analysis.overlap_shares == [pytest.approx(0.6)]


def test_sequential_gap_is_nearest():
    quic = [make_attack(victim=1, start=1000, end=1100)]
    common = [
        make_attack(victim=1, vector="tcp", start=0, end=500),     # gap 500
        make_attack(victim=1, vector="tcp", start=2000, end=2500), # gap 900
    ]
    analysis = correlate_attacks(quic, common)
    assert analysis.sequential_gaps == [500.0]


def test_empty_inputs():
    analysis = correlate_attacks([], [])
    assert analysis.category_shares() == {
        CONCURRENT: 0.0,
        SEQUENTIAL: 0.0,
        ISOLATED: 0.0,
    }


def test_victim_timeline():
    quic = [
        make_attack(victim=1, start=100, end=200),
        make_attack(victim=1, start=900, end=1000),
    ]
    common = [make_attack(victim=1, vector="tcp", start=100, end=250)]
    analysis = correlate_attacks(quic, common)
    timeline = analysis.victim_timeline(1)
    vectors = [row[0] for row in timeline]
    assert vectors.count("quic") == 2
    assert vectors.count("tcp") == 1
    starts = [row[1] for row in timeline]
    assert starts == sorted(starts)
