"""Exact state is updated once per (batch, source) and grows with
sources, not packets — and nothing observable may tell.

``PartialState.apply`` buckets a batch by source and lands each bucket
as one ``Sessionizer.add_run`` / ``TimeoutSweep.observe_run``; the sweep
counts gaps of up to a minute instead of keeping them.  Pinned here,
with no wall clock:

(a) ``apply`` is batch-boundary independent, and equal to the
    one-observation-at-a-time chain it replaced (written out below as
    the reference), on arbitrary observation lists — timeouts, minute
    and hour edges, equal and *backwards* timestamps included;
(b) the counted sweep equals a keep-every-gap reference for every
    timeout it answers for, through ``exclude_sources`` and ``merge`` —
    of source shards and of destination partitions alike;
(c) on real traffic the per-entry fallback is the exception for
    un-hooked sessionizers and the rule for the monitor's hooked ones.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AnalysisConfig, QuicsandPipeline
from repro.core.classify import PacketClass
from repro.core.pipeline import PartialState
from repro.core.sessions import Sessionizer, TimeoutSweep
from repro.stream import StreamAnalyzer, StreamConfig
from repro.telescope import Scenario, ScenarioConfig
from repro.telescope.presets import get_scenario
from repro.util.timeutil import HOUR

from tests.oracle import state_facts

REQUEST, RESPONSE = PacketClass.QUIC_REQUEST, PacketClass.QUIC_RESPONSE
TCP, ICMP = PacketClass.TCP_BACKSCATTER, PacketClass.ICMP_BACKSCATTER

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


def reference_apply(state: PartialState, observations: list) -> None:
    """The state update as a per-observation chain: what ``apply`` was
    before it grouped, and so what it has to equal."""
    for kind, source, timestamp, dst, port, length, entry in observations:
        if kind in (REQUEST, RESPONSE):
            hour = int(timestamp // HOUR)
            tally = state.quic_source_packets
            tally[source] = tally.get(source, 0) + 1
            if kind is REQUEST:
                hours = state.per_source_hourly.setdefault(source, {})
                hours[hour] = hours.get(hour, 0) + 1
                series = state.hourly_requests
            else:
                series = state.hourly_responses
                if entry is not None:
                    state.passive_retry_packets += bool(entry[3])
                    state.response_long_header_packets += bool(entry[4])
                    state.response_empty_dcid_packets += bool(entry[4] and entry[5])
            series[hour] = series.get(hour, 0) + 1
            state.sweep.observe(source, timestamp)
        state.sessionizers[kind].add_entry(
            source, timestamp, dst, port, length, None if entry is None else entry[2]
        )


def applied(parts, update=PartialState.apply) -> dict:
    state = PartialState.initial(AnalysisConfig())
    for part in parts:
        update(state, part)
    return state_facts(state)


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
    assert applied(parts) == whole, cuts
    assert applied([[observation] for observation in observations]) == whole
    assert applied([observations], update=reference_apply) == whole


def test_apply_keeps_hooked_sessionizers_in_stream_order():
    """Two victims cross a threshold in one batch, the later-starting
    one first: the hook sees entries in stream order across sources."""
    seen = []
    state = PartialState.initial(AnalysisConfig())
    state.sessionizers[TCP].on_update = lambda s: seen.append((s.source, s.last_ts))
    rows = [(TCP, 1 + i % 2, float(i), 100, 80, 40, None) for i in range(6)]
    state.apply(rows + [(REQUEST, 1, 6.0, 100, 443, 1228, ENTRIES[1])])
    assert seen == [(1 + i % 2, float(i)) for i in range(6)]
    assert state.sessionizers[TCP].open_count == 2
    assert state.sessionizers[REQUEST].open_sessions()[0].packet_count == 1


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


# -- (c) who still goes entry by entry ----------------------------------------


@pytest.fixture
def entry_calls(monkeypatch):
    """``traffic class -> add_entry calls`` for the test's duration."""
    calls: dict = {}
    add_entry = Sessionizer.add_entry

    def counting(self, *entry):
        calls[self.traffic_class] = calls.get(self.traffic_class, 0) + 1
        add_entry(self, *entry)

    monkeypatch.setattr(Sessionizer, "add_entry", counting)
    return calls


SCENARIO_HOURS = [
    pytest.param(get_scenario("ibr-backscatter").config(duration=HOUR), id="ibr-backscatter"),
    # every class at once, research bulk included
    pytest.param(ScenarioConfig(seed=29, duration=HOUR, research_sample=1 / 64), id="mixed"),
]


@pytest.mark.parametrize("config", SCENARIO_HOURS)
def test_fallback_is_the_exception_on_the_fused_path(config, entry_calls):
    result = QuicsandPipeline(config=AnalysisConfig()).process_record_batches(
        Scenario(config).lane_batches(512)
    )
    observations = sum(
        result.class_counts.get(kind.value, 0) for kind in (REQUEST, RESPONSE, TCP, ICMP)
    )
    assert observations > 5000
    assert sum(entry_calls.values()) < 0.05 * observations, entry_calls


def test_monitor_feeds_hooked_classes_entry_by_entry(entry_calls):
    config = ScenarioConfig(seed=29, duration=HOUR, research_sample=1 / 64)
    analyzer = StreamAnalyzer(stream_config=StreamConfig(mode="bounded"))
    packets = list(Scenario(config).packets())
    for start in range(0, len(packets), 512):
        analyzer.process_batch(packets[start : start + 512])
    analyzer.finish()
    counts = analyzer.state.class_counts
    for kind in (RESPONSE, TCP, ICMP):
        assert counts[kind] > 0
        assert entry_calls.get(kind.value, 0) == counts[kind], kind
    assert entry_calls.get(REQUEST.value, 0) < 0.05 * counts[REQUEST]
