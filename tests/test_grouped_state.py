"""Exact state is updated once per (batch, source) and grows with
sources, not packets — and nothing observable may tell.

``PartialState.apply`` buckets a batch by source and lands each bucket
as one ``Sessionizer.add_run`` / ``TimeoutSweep.observe_run``; a run is
cut only at gaps above the session timeout, and the sweep counts gaps
of up to a minute instead of keeping them.  Pinned here, with no wall
clock:

(a) ``apply`` is batch-boundary independent, and equal to a
    one-observation-at-a-time chain written out below from the
    definitions (calling nothing under ``src/``), on arbitrary
    observation lists — timeouts, minute and hour edges, equal and
    *backwards* timestamps included; the monitor, which sees runs
    source by source, still alerts in crossing order;
(b) the counted sweep equals a keep-every-gap reference for every
    timeout it answers for, through ``exclude_sources`` and ``merge`` —
    of source shards and of destination partitions alike;
(c) on real traffic a session takes far fewer updates than packets, on
    the fused path and in both session modes of the monitor;
(d) only QUIC-response sessions keep destination and dissection detail
    — on the fused path, across ``--workers`` parts and in the rich
    walker — which holds a 6 h state's snapshot to a pinned size.
"""

from copy import deepcopy
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AnalysisConfig, QuicsandPipeline
from repro.core.batchlane import BatchLane
from repro.core.classify import PacketClass
from repro.core.pipeline import PartialState, run_record_batches
from repro.core.sessions import (
    Session,
    Sessionizer,
    TimeoutSweep,
    _NoCounts,
    _absorb_session,
    _clone_session,
    chain_merge_sessions,
)
from repro.net.packet import IPProto, TcpFlags
from repro.stream import FloodAlert, StreamAnalyzer, StreamConfig
from repro.telescope import Scenario, ScenarioConfig
from repro.telescope.presets import get_scenario
from repro.util.timeutil import HOUR, MINUTE

from tests.oracle import make_pipeline, rich_result, state_facts
from tests.reference.headers import HeaderPacket, IPv4Header, TcpHeader

REQUEST, RESPONSE = PacketClass.QUIC_REQUEST, PacketClass.QUIC_RESPONSE
TCP, ICMP = PacketClass.TCP_BACKSCATTER, PacketClass.ICMP_BACKSCATTER
KINDS = (REQUEST, RESPONSE, TCP, ICMP)
TIMEOUT = 5 * MINUTE  # the paper's session timeout, AnalysisConfig's default

#: lane entries as the adapters hand them out: a small pool of shared
#: objects (the memo), among them two *equal but distinct* ones, a
#: RETRY and a long header with an empty DCID
_INITIAL = (("initial", 1),), (b"\x01\x02",), (("QUICv1", 1),), 0
ENTRIES = (
    None,
    (True, None, _INITIAL, False, True, False, 1, b"\xaa"),
    (True, None, tuple(_INITIAL), False, True, False, 1, b"\xaa"),
    (True, None, ((("retry", 1),), (b"\x03",), (("QUICv1", 1),), 1),
     True, False, False, 1, b""),
    (True, None, ((("initial", 1), ("handshake", 1)), (b"\x04", b"\x05"),
                  (("draft-29", 2),), 0), False, True, True, 0xFF00001D, b""),
    (True, None, ((("one-rtt", 1),), (), (), 0), False, False, False, None, b""),
)

#: steps of the stream clock: equal stamps, sub-minute, the sweep
#: resolution and the 5-minute session timeout from both sides, an hour,
#: and steps *backwards* (a mis-ordered capture)
STEPS = (0.0, 0.25, 7.0, 59.5, 60.0, 60.5, 299.5, 300.0, 300.5, 3600.0, -0.25, -45.0, -400.0)


@st.composite
def observation_lists(draw):
    sources = draw(st.integers(min_value=1, max_value=4))
    clock = draw(st.sampled_from((0.0, 3540.5, 7199.0)))  # next to hour edges
    observations = []
    for _ in range(draw(st.integers(min_value=0, max_value=40))):
        clock += draw(st.sampled_from(STEPS))
        kind = draw(st.sampled_from((REQUEST, RESPONSE, TCP, ICMP)))
        quic = kind in (REQUEST, RESPONSE)
        observations.append((
            kind,
            draw(st.integers(min_value=1, max_value=sources)),
            clock,
            draw(st.integers(min_value=100, max_value=103)),
            None if kind is ICMP else draw(st.sampled_from((443, 50000))),
            draw(st.integers(min_value=28, max_value=1300)),
            draw(st.sampled_from(ENTRIES)) if quic else None,
        ))
    return observations


def reference_facts(observations: list) -> dict:
    """What ``apply`` has to leave behind, one observation at a time
    and calling nothing under ``src/``: tallies and hourly series per
    observation, the sweep as every gap kept, and sessions as a chain
    per (class, source) — a new session whenever the gap from the
    source's last packet exceeds the timeout, the gap itself as
    ``a - b`` however the clock stepped.  Every session counts packets,
    bytes and minute slots; only a QUIC-response session also keeps
    destinations and the dissection tallies."""
    tally, per_source, requests, responses = {}, {}, {}, {}
    retry = long_header = empty_dcid = 0
    sweep = KeepEveryGap()
    live = {kind: {} for kind in KINDS}
    closed = {kind: [] for kind in KINDS}
    seen = {kind: set() for kind in KINDS}
    for kind, source, timestamp, dst, port, length, entry in observations:
        if kind in (REQUEST, RESPONSE):
            hour = int(timestamp // HOUR)
            tally[source] = tally.get(source, 0) + 1
            if kind is REQUEST:
                hours = per_source.setdefault(source, {})
                hours[hour] = hours.get(hour, 0) + 1
                series = requests
            else:
                series = responses
                if entry is not None:
                    retry += bool(entry[3])
                    long_header += bool(entry[4])
                    empty_dcid += bool(entry[4] and entry[5])
            series[hour] = series.get(hour, 0) + 1
            sweep.observe(source, timestamp)
        session = live[kind].get(source)
        if session is not None and timestamp - session["last_ts"] > TIMEOUT:
            closed[kind].append(live[kind].pop(source))
            session = None
        if session is None:
            seen[kind].add(source)
            session = live[kind][source] = {
                "source": source, "traffic_class": kind.value,
                "first_ts": timestamp, "last_ts": timestamp,
                "packet_count": 0, "byte_count": 0,
                "dst_ips": set(), "dst_ports": set(), "scids": set(),
                "message_types": {}, "minute_slots": {},
                "retry_packets": 0, "version_names": {},
            }
        session["last_ts"] = timestamp
        session["packet_count"] += 1
        session["byte_count"] += length
        slots = session["minute_slots"]
        slots[int(timestamp // MINUTE)] = slots.get(int(timestamp // MINUTE), 0) + 1
        if kind is not RESPONSE:
            continue
        session["dst_ips"].add(dst)
        if port is not None:
            session["dst_ports"].add(port)
        if entry is not None:
            types, scids, versions, retries = entry[2]
            for field, counts in (("message_types", types), ("version_names", versions)):
                for name, n in counts:
                    session[field][name] = session[field].get(name, 0) + n
            session["scids"].update(scids)
            session["retry_packets"] += retries
    for kind in KINDS:
        closed[kind] += live[kind].values()
        closed[kind].sort(key=lambda s: (s["first_ts"], s["source"]))  # stable
    return {
        "quic_source_packets": sorted(tally.items()),
        "per_source_hourly": [
            (source, sorted(hours.items())) for source, hours in sorted(per_source.items())
        ],
        "hourly_requests": sorted(requests.items()),
        "hourly_responses": sorted(responses.items()),
        "passive_retry_packets": retry,
        "response_long_header_packets": long_header,
        "response_empty_dcid_packets": empty_dcid,
        "sessions": {kind: (closed[kind], len(seen[kind]), seen[kind]) for kind in KINDS},
        "sweep": (
            sweep.packet_count(),
            len(sweep.last),
            [sweep.sessions_at(timeout) for timeout in TIMEOUTS],
        ),
    }


def applied(parts) -> PartialState:
    state = PartialState.initial(AnalysisConfig())
    for part in parts:
        state.apply(part)
    return state


def observed(state: PartialState) -> dict:
    """:func:`~tests.oracle.state_facts` with the sessions and the sweep
    in :func:`reference_facts`' terms."""
    facts = state_facts(state)
    sweep = state.sweep
    facts["sweep"] = (
        sweep.packet_count,
        sweep.source_count,
        [sweep.sessions_at(timeout) for timeout in TIMEOUTS],
    )
    facts["sessions"] = {
        kind: ([asdict(session) for session in closed], count, seen)
        for kind, (closed, count, seen) in facts["sessions"].items()
    }
    return facts


@settings(max_examples=150, deadline=None)
@given(observation_lists(), st.data())
def test_apply_is_batch_boundary_independent(observations, data):
    cuts = sorted(
        data.draw(
            st.lists(st.integers(min_value=0, max_value=len(observations)), max_size=3)
        )
    )
    parts = [
        observations[start:stop]
        for start, stop in zip([0] + cuts, cuts + [len(observations)])
    ]
    whole = applied([observations])
    assert state_facts(applied(parts)) == state_facts(whole), cuts
    assert state_facts(applied([[o] for o in observations])) == state_facts(whole)
    facts, expected = observed(whole), reference_facts(observations)
    assert {name: facts[name] for name in expected} == expected


def test_monitor_alerts_in_crossing_order():
    """Two victims cross the thresholds in one batch, the later-starting
    one first.  The batch lands source by source — victim 1, seen first,
    before victim 2 — and the alerts still come out in crossing order."""

    def rst(ts, src):
        return HeaderPacket(
            ts, IPv4Header(src, 2, IPProto.TCP), TcpHeader(443, 999, flags=TcpFlags.RST)
        )

    # victim 1: one packet at 0, then 2 pps from 100 s — crosses at 115 s
    # (32 packets, 31 of them in minute 1); victim 2: 1 pps from 5 s —
    # crosses at 66 s (62 packets, duration 61 s)
    packets = sorted(
        [rst(0.0, 1)]
        + [rst(100.0 + i / 2, 1) for i in range(40)]
        + [rst(5.0 + i, 2) for i in range(80)],
        key=lambda p: p.timestamp,
    )
    analyzer = StreamAnalyzer()
    events = analyzer.process_batch(packets)
    alerts = [event for event in events if isinstance(event, FloodAlert)]
    expected = [(2, 5.0, 66.0, 62), (1, 0.0, 115.0, 32)]
    for emitted in (alerts, analyzer.alerts):
        assert [
            (a.victim_ip, a.start, a.crossed_at, a.packet_count) for a in emitted
        ] == expected


# -- (b) the counted sweep ------------------------------------------------------


class KeepEveryGap:
    """The sweep as first written: every per-source gap, kept."""

    def __init__(self):
        self.last, self.gaps, self.excluded = {}, {}, set()

    def observe(self, source, timestamp):
        if source in self.last:
            self.gaps.setdefault(source, []).append(timestamp - self.last[source])
        self.last[source] = timestamp

    def sessions_at(self, timeout):
        live = set(self.last) - self.excluded
        return len(live) + sum(
            gap > timeout for source in live for gap in self.gaps.get(source, ())
        )

    def packet_count(self):
        live = set(self.last) - self.excluded
        return len(live) + sum(len(self.gaps.get(source, ())) for source in live)


TIMEOUTS = (60.0, 60.25, 61.0, 299.5, 300.0, 3600.0, 1e9)


def runs_of(events):
    """Maximal stretches of ``events`` with one source and non-decreasing
    timestamps — what ``observe_run`` may be fed."""
    runs = []
    for source, timestamp in events:
        if runs and runs[-1][0] == source and runs[-1][1][-1] <= timestamp:
            runs[-1][1].append(timestamp)
        else:
            runs.append((source, [timestamp]))
    return [(source, tuple(stamps)) for source, stamps in runs]


@st.composite
def event_lists(draw):
    clock, events = 0.0, []
    for _ in range(draw(st.integers(min_value=1, max_value=50))):
        clock += draw(st.sampled_from(STEPS))
        events.append((draw(st.integers(min_value=1, max_value=3)), clock))
    return events


@settings(max_examples=150, deadline=None)
@given(event_lists(), st.booleans(), st.data())
def test_counted_sweep_equals_keep_every_gap(events, by_run, data):
    parts = data.draw(st.integers(min_value=1, max_value=3))
    if parts > 1:
        # a destination partition splits a time-ordered capture
        events.sort(key=lambda event: event[1])
    # a drawn part per event, blind to the source, and a merge order
    assignment = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=parts - 1),
            min_size=len(events),
            max_size=len(events),
        )
    )
    order = data.draw(st.permutations(range(parts)))
    naive = KeepEveryGap()
    for source, timestamp in events:
        naive.observe(source, timestamp)
    sweeps = []
    for part in range(parts):
        # sources 1 and 2 into one sweep, 3 into a shard merged in afterwards
        sweep, shard = TimeoutSweep(), TimeoutSweep()
        mine = [event for event, drawn in zip(events, assignment) if drawn == part]
        feed = runs_of(mine) if by_run else [(s, (t,)) for s, t in mine]
        for source, stamps in feed:
            (shard if source == 3 else sweep).observe_run(source, stamps)
        sweep.merge(shard)
        sweeps.append(sweep)
    sweep = sweeps[order[0]]
    for part in order[1:]:
        sweep.merge(sweeps[part])
    for excluded in ((), (1,), (1, 3)):
        naive.excluded.update(excluded)
        sweep.exclude_sources(excluded)
        assert sweep.packet_count == naive.packet_count()
        assert sweep.source_count == len(set(naive.last) - naive.excluded)
        for timeout in TIMEOUTS:
            assert sweep.sessions_at(timeout) == naive.sessions_at(timeout), timeout
    # nothing is kept for an excluded source, and nothing new counts
    assert not {1, 3} & (set(sweep._runs) | set(sweep._packets))
    before = sweep.packet_count
    sweep.observe_run(1, (1e6, 1e6 + 90.0))
    assert sweep.packet_count == before


def test_sweep_counts_a_gap_of_exactly_one_minute():
    sweep = TimeoutSweep()
    sweep.observe_run(1, (0.0, 60.0, 120.0 + 2**-40))
    assert sweep._packets == {1: 3}
    assert sweep._runs == {1: [[0.0, 60.0], [120.0 + 2**-40, 120.0 + 2**-40]]}
    assert sweep.sessions_at(60.0) == 2
    assert sweep.sessions_at(60.0 + 2**-40) == 1
    # split across two parts, the same stamps join the same way
    merged, part = TimeoutSweep(), TimeoutSweep()
    merged.observe_run(1, (0.0, 120.0 + 2**-40))
    part.observe(1, 60.0)
    merged.merge(part)
    assert merged._runs == sweep._runs


def test_sweep_refuses_timeouts_below_its_resolution():
    sweep = TimeoutSweep()
    sweep.observe_run(1, (0.0, 10.0, 45.0))
    assert sweep.sessions_at(TimeoutSweep.RESOLUTION) == 1
    for timeout in (0.0, 10.0, 59.999):
        with pytest.raises(ValueError, match="60 s"):
            sweep.sessions_at(timeout)
    with pytest.raises(ValueError, match="60 s"):
        sweep.sweep([0.5, 1])


def test_sweep_merge_refuses_an_excluded_target():
    """Exclusion forgets the source, so a later merge could not tell
    that a shard brings it back."""
    target, shard = TimeoutSweep(), TimeoutSweep()
    target.observe(1, 0.0)
    target.exclude_sources({1})
    shard.observe(1, 5.0)
    with pytest.raises(ValueError, match="exclud"):
        target.merge(shard)


# -- (c) how often a session is updated ---------------------------------------


IBR = get_scenario("ibr-backscatter").config(duration=HOUR)
# every class at once, research bulk included
MIXED = ScenarioConfig(seed=29, duration=HOUR, research_sample=1 / 64)


def fused_counts(config) -> dict:
    result = QuicsandPipeline(config=AnalysisConfig()).process_record_batches(
        Scenario(config).lane_batches(512)
    )
    return result.class_counts


def monitor_counts(config, mode) -> dict:
    analyzer = StreamAnalyzer(stream_config=StreamConfig(mode=mode))
    for batch in Scenario(config).packet_batches(512):
        analyzer.process_batch(batch)
    analyzer.finish()
    return {kind.value: count for kind, count in analyzer.state.class_counts.items()}


@pytest.mark.parametrize(
    "run",
    [
        pytest.param(lambda: fused_counts(IBR), id="fused-ibr-backscatter"),
        pytest.param(lambda: fused_counts(MIXED), id="fused-mixed"),
        pytest.param(lambda: monitor_counts(MIXED, "exact"), id="exact-mixed"),
        pytest.param(lambda: monitor_counts(MIXED, "bounded"), id="bounded-mixed"),
    ],
)
def test_sessions_update_once_per_run(run, monkeypatch):
    """``Session.apply_run`` calls per observation, per class, are far
    below one: a run lands whole unless a gap above the timeout cuts
    it, the monitor's flood detector listening or not."""
    calls: dict = {}
    apply_run = Session.apply_run

    def counting(self, *columns):
        calls[self.traffic_class] = calls.get(self.traffic_class, 0) + 1
        apply_run(self, *columns)

    monkeypatch.setattr(Session, "apply_run", counting)
    counts = run()
    assert sum(counts.get(kind.value, 0) for kind in KINDS) > 5000
    for kind in KINDS:
        if counts.get(kind.value):
            assert calls[kind.value] < 0.25 * counts[kind.value], (kind, calls, counts)


# -- (d) which sessions keep detail -------------------------------------------


DETAIL = ("dst_ips", "dst_ports", "scids", "message_types", "retry_packets", "version_names")


@pytest.mark.parametrize("walk", ["fused", "workers-2", "rich"])
def test_only_response_sessions_keep_detail(walk):
    """Figure 9 and the message-type shares read QUIC-response sessions
    only, so no request, TCP or ICMP session holds a destination or a
    dissection tally, whichever walker built it."""
    scenario = Scenario(MIXED)
    if walk == "rich":
        result = rich_result(scenario, scenario.packets())
    else:
        pipeline = make_pipeline(scenario, workers=1 if walk == "fused" else 2)
        result = pipeline.process_scenario(scenario)
    for sessions in (result.request_sessions, result.tcp_sessions, result.icmp_sessions):
        assert sessions
        assert not any(getattr(s, name) for s in sessions for name in DETAIL)
    assert any(
        all(getattr(s, name) for name in DETAIL if name != "retry_packets")
        for s in result.response_sessions
    )
    sessions = result.request_sessions + result.tcp_sessions + result.icmp_sessions
    assert_no_shared_mutable_container(sessions + result.response_sessions)


CONTAINERS = ("dst_ips", "dst_ports", "scids", "message_types", "minute_slots", "version_names")


def assert_no_shared_mutable_container(sessions):
    """A container two sessions share is one of the read-only
    stand-ins: every way to write to it raises."""
    owners: dict = {}
    for session in sessions:
        for name in CONTAINERS:
            container = getattr(session, name)
            owners.setdefault(id(container), (container, []))[1].append(session)
    shared = [container for container, held in owners.values() if len(held) > 1]
    assert shared  # the stand-ins of the detail-free classes
    for container in shared:
        assert not container
        writes = (
            (lambda: container.add(1), lambda: container.update({1}))
            if isinstance(container, frozenset)
            else (
                lambda: container.__setitem__("initial", 1),
                lambda: container.update(initial=1),
                lambda: container.setdefault("initial", 1),
                lambda: container.__ior__({"initial": 1}),
            )
        )
        for write in writes:
            with pytest.raises((AttributeError, TypeError)):
                write()
        assert not container


def part_sessions(runs):
    """The sessions one part's sessionizers hold after ``runs``:
    ``(class, source, stamps)`` each."""
    sessionizers = {}
    for traffic_class, source, stamps in runs:
        sessionizer = sessionizers.setdefault(
            traffic_class, Sessionizer(traffic_class, timeout=5 * MINUTE)
        )
        sessionizer.add_run(source, stamps, (1,) * len(stamps), (443,) * len(stamps),
                            (60,) * len(stamps), (None,) * len(stamps))
    return [s for sessionizer in sessionizers.values() for s in sessionizer.open_sessions()]


def test_joining_detail_free_fragments_leaves_other_sessions_alone():
    """``_clone_session`` / ``_absorb_session`` over request sessions —
    what a ``--workers`` merge does to a source's fragments — write only
    to the joined session, never to a stand-in another session holds."""
    first = part_sessions([("quic-request", 7, (0.0, 30.0)), ("quic-request", 8, (5.0,))])
    second = part_sessions([("quic-request", 7, (90.0, 100.0, 120.0)),
                            ("tcp-backscatter", 9, (0.0,))])
    before = deepcopy(first + second)

    joined = _clone_session(first[0])
    _absorb_session(joined, second[0])
    assert (joined.packet_count, joined.first_ts, joined.last_ts) == (5, 0.0, 120.0)
    assert joined.minute_slots == {0: 2, 1: 2, 2: 1}
    assert first + second == before
    assert_no_shared_mutable_container([joined] + first + second)
    [whole] = part_sessions([("quic-request", 7, (0.0, 30.0, 90.0, 100.0, 120.0))])
    assert joined == whole
    assert chain_merge_sessions(first + second, 5 * MINUTE) == sorted(
        [joined, first[1], second[1]], key=lambda s: (s.first_ts, s.source)
    )


def test_state_with_detail_free_sessions_round_trips_through_pickle():
    """A part hands its state back as a pickle: open and closed sessions
    of every class load equal to the original, and the detail-free ones
    come back holding read-only stand-ins."""
    batches = list(Scenario(MIXED).lane_batches(512))
    state, lane = PartialState.initial(AnalysisConfig()), BatchLane()
    for batch in batches[: len(batches) // 2]:
        state.consume_lane_records(batch, lane)
    open_sessions = [
        session
        for sessionizer in state.sessionizers.values()
        for session in sessionizer.open_sessions()
    ]
    assert {session.traffic_class for session in open_sessions} >= {"quic-request", "quic-response"}

    loaded = PartialState.from_snapshot_bytes(state.snapshot_bytes())
    assert [
        session
        for sessionizer in loaded.sessionizers.values()
        for session in sessionizer.open_sessions()
    ] == open_sessions
    assert state_facts(loaded) == state_facts(state)
    detail_free = []
    for kind, sessionizer in loaded.sessionizers.items():
        if kind is not RESPONSE:
            assert sessionizer.closed
            detail_free += sessionizer.closed + sessionizer.open_sessions()
            for session in sessionizer.closed:
                assert type(session.message_types) is type(session.version_names) is _NoCounts
                assert type(session.scids) is frozenset
    # a session pickles as a tuple of its fields, and the stand-ins stay
    # one shared object per field across the whole loaded state
    session = detail_free[0]
    assert session.__getstate__() == tuple(getattr(session, n) for n in type(session).__slots__)
    for name in ("dst_ips", "dst_ports", "scids", "message_types", "version_names"):
        assert len({id(getattr(session, name)) for session in detail_free}) == 1, name
    assert_no_shared_mutable_container(
        [s for sessionizer in loaded.sessionizers.values() for s in sessionizer.closed]
    )


def test_six_hour_snapshot_size():
    """Bytes, not seconds: a 6 h fused state with the research sweeps
    pickles to under 165 kB — 152,711 bytes with each session a tuple of
    its fields (177,599 as a dict keyed by slot name, 1.1 MB while every
    session kept its destinations)."""
    config = ScenarioConfig(seed=20210401, duration=6 * HOUR, research_sample=1 / 64)
    state = run_record_batches(Scenario(config).lane_batches(512), AnalysisConfig())
    assert len(state.snapshot_bytes()) <= 165_000
