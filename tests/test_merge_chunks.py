"""The serial record merge: sorted chunks instead of a k-way heap.

``merge_chunks`` must be ``heapq.merge`` — same records, same order,
ties broken toward the earlier unit and, inside a unit, toward the
earlier record — while never touching a unit before its start bound is
due, and hold about one analysis batch of records at a time, not five
minutes of them.  The session-shaped units it feeds from
(misconfiguration, bots, TCP scans) must stream through
``in_time_order`` rather than materialise their window, and every
unit that emits trains (floods, adversarial floods) is ordered by that
same rule.
"""

import heapq
import os
from itertools import chain
from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.packet import TcpFlags
from repro.telescope import Scenario, ScenarioConfig, attacks, telescope, workload
from repro.telescope.noise import MisconfigurationModel
from repro.telescope.presets import scenario_config, scenario_names
from repro.telescope.scanners import BotScannerModel, TcpScannerModel
from repro.telescope.telescope import in_time_order, merge_chunks
from repro.util.batching import BATCH_SIZE
from repro.util.rng import SeededRng
from repro.util.timeutil import APRIL_1_2021, DAY, HOUR

WINDOW = 4.0
#: raised by the fuzz-smoke CI job, like the dissector fuzz suites
ITERS = int(os.environ.get("REPRO_FUZZ_ITERS", "300"))

# timestamps on a half-unit grid: equal across and within units, and
# exactly on window edges (multiples of WINDOW) more often than not
stamps = st.lists(st.integers(0, 80).map(lambda n: n / 2), max_size=30).map(sorted)


@st.composite
def timed_units(draw):
    units = []
    for position, times in enumerate(draw(st.lists(stamps, max_size=6))):
        first = times[0] if times else 40.0
        # a late-starting unit: the bound may sit anywhere up to its first record
        start = first - draw(st.sampled_from([0.0, 0.5, WINDOW, 3 * WINDOW, 40.0]))
        records = [(t, position, n) for n, t in enumerate(times)]
        units.append((start, records))
    return units


@settings(max_examples=ITERS, deadline=None)
@given(units=timed_units())
def test_chunked_merge_equals_heapq_merge(units):
    expected = list(heapq.merge(*(records for _, records in units), key=itemgetter(0)))
    chunks = list(merge_chunks([(start, iter(records)) for start, records in units], WINDOW))
    assert all(chunks), "an empty chunk was yielded"
    assert list(chain.from_iterable(chunks)) == expected


class _Spy:
    """An iterator that reports how far the merge had got when first advanced."""

    def __init__(self, records, emitted):
        self.records = iter(records)
        self.emitted = emitted
        self.seen_at_first_advance = None

    def __iter__(self):
        return self

    def __next__(self):
        if self.seen_at_first_advance is None:
            self.seen_at_first_advance = list(self.emitted)
        return next(self.records)


@settings(max_examples=ITERS // 3, deadline=None)
@given(
    early=st.lists(stamps, min_size=1, max_size=3),
    start=st.integers(0, 120).map(lambda n: n / 2),
    late=stamps,
)
def test_unit_is_not_advanced_before_its_start_bound(early, start, late):
    emitted = []
    spy = _Spy([(start + t, "late", n) for n, t in enumerate(late)], emitted)
    units = [(0.0, iter([(t, i, n) for n, t in enumerate(times)])) for i, times in enumerate(early)]
    for chunk in merge_chunks(units + [(start, spy)], WINDOW):
        emitted.extend(chunk)
    before = spy.seen_at_first_advance
    assert before is not None
    # nothing at or past the bound was emitted ahead of the unit ...
    assert all(t < start for t, *_ in before)
    # ... and the merge had come within one window of it: every record
    # more than a window older than the bound was already out
    old = sorted(t for times in early for t in times if t < start - WINDOW)
    assert [t for t, *_ in before][: len(old)] == old


#: records per second of each synthetic unit: 18 in all, the busiest
#: five minutes of the default day (1/64 research sample) at ≈ 18.6
RATES = (8, 4, 3, 2, 1)


def _steady_units(seconds):
    """One ``(start, iterator)`` unit per rate in :data:`RATES`, evenly
    spaced records over ``seconds``, a third of them joining late."""
    units = []
    for position, rate in enumerate(RATES):
        start = seconds / 3 if position % 2 else 0.0
        count = int((seconds - start) * rate)
        units.append((start, iter([(start + n / rate, position, n) for n in range(count)])))
    return units


def test_merge_holds_about_one_batch_of_records():
    """What the serial merge holds at once — the chunk it yields plus the
    records it has pulled ahead into the units' buffers — is about one
    analysis batch at the day's busiest rate, not a five-minute window."""
    pulled = yielded = high_water = 0

    def counted(records):
        nonlocal pulled
        for record in records:
            pulled += 1
            yield record

    units = [(start, counted(records)) for start, records in _steady_units(2 * HOUR)]
    for chunk in merge_chunks(units, workload._MERGE_WINDOW):
        high_water = max(high_water, pulled - yielded)
        yielded += len(chunk)
    assert yielded == pulled > 100_000
    # two batches; a 300 s window at this rate holds 5,400 in its chunk alone
    assert high_water <= 2 * BATCH_SIZE


def test_first_record_does_not_set_up_later_floods(monkeypatch):
    created = []

    class Counting(attacks.QuicVictimResponder):
        def __init__(self, *args):
            created.append(args[0])
            super().__init__(*args)

    monkeypatch.setattr(attacks, "QuicVictimResponder", Counting)
    scenario = Scenario(ScenarioConfig(seed=11, duration=2 * HOUR, research_sample=1 / 2048))
    floods = scenario.plan.quic_floods
    first = next(iter(scenario.records()))
    due = [f for f in floods if f.start < first[0] + HOUR / 2]
    assert len(due) < len(floods), "the scenario has no late QUIC flood to tell"
    assert len(created) <= len(due)


# -- session-shaped units stream their window ----------------------------


@st.composite
def timed_sessions(draw):
    """Sessions on a half-unit grid: non-decreasing starts, records at or
    after their start in any order, equal timestamps across sessions."""
    sessions = []
    for n, first in enumerate(sorted(draw(st.lists(st.integers(0, 40), max_size=8)))):
        offsets = draw(st.lists(st.integers(0, 12), max_size=6))
        sessions.append((first / 2, [((first + d) / 2, n, k) for k, d in enumerate(offsets)]))
    return sessions


@settings(max_examples=ITERS, deadline=None)
@given(sessions=timed_sessions(), edges=st.lists(st.integers(0, 54), min_size=2, max_size=2))
def test_in_time_order_is_the_stable_sort_cut_to_the_window(sessions, edges):
    # the window's edges fall anywhere, through sessions included
    start, end = sorted(edge / 2 for edge in edges)
    merged = sorted(chain.from_iterable(records for _, records in sessions), key=itemgetter(0))
    expected = [r for r in merged if start <= r[0] < end]
    assert list(in_time_order(iter(sessions), start, end)) == expected


START, END = APRIL_1_2021, APRIL_1_2021 + 7 * DAY


def _internet():
    return Scenario(ScenarioConfig(seed=5, duration=HOUR, research_sample=1 / 2048)).internet


def _misconfig_sessions(model):
    rate = model.sessions_per_day / 86400.0
    sessions, t = [], START
    while True:
        t += model.rng.expovariate(rate)
        if t >= END:
            return sessions
        sessions.append(model._session_items(t))


def _bot_sessions(model):
    return [model.session_records(t, bot) for t, bot in model.session_starts(START, END)]


def _tcp_sessions(model):
    """The TCP scan loop as it was before it streamed: every session of
    the window drawn up front."""
    syn = int(TcpFlags.SYN)
    peak = model.diurnal.peak_rate_factor()
    rate = model.sessions_per_day / 86400.0 * peak
    rng, bots = model.rng, model.internet.bot_hosts
    sessions, t = [], START
    while True:
        t += rng.expovariate(rate)
        if t >= END:
            return sessions
        if rng.random() >= model.diurnal.factor(t) / peak:
            continue
        bot = rng.choice(bots)
        port = rng.choice(model.target_ports)
        count = max(1, int(rng.expovariate(1.0 / model.mean_packets_per_session)) + 1)
        src_port = rng.randint(1024, 65535)
        session, ts = [], t
        for _ in range(count):
            dst = model.internet.random_telescope_address(rng)
            seq = rng.randint(0, 2**32 - 1)
            session.append((ts, bot.address, dst, 40, 6, 2, src_port, port, syn, 0, b"", seq, 0))
            ts += rng.expovariate(0.8)
        sessions.append(session)


#: model, sessions per day, the reference drawing every session up front
UNITS = {
    "misconfig": (MisconfigurationModel, 150.0, _misconfig_sessions),
    "bots": (BotScannerModel, 250.0, _bot_sessions),
    "tcp-scans": (TcpScannerModel, 250.0, _tcp_sessions),
}


@pytest.mark.parametrize("kind", sorted(UNITS))
def test_session_records_stream_with_a_bounded_reorder_heap(kind, monkeypatch):
    model_class, per_day, reference = UNITS[kind]

    def build():
        return model_class(internet=_internet(), rng=SeededRng(99), sessions_per_day=per_day)

    # the reference: every session of the window drawn up front, one stable sort
    sessions = reference(build())
    merged = sorted(chain.from_iterable(sessions), key=itemgetter(0))
    expected = [r for r in merged if START <= r[0] < END]

    high_water = 0

    def spying_push(heap, item):
        nonlocal high_water
        heapq.heappush(heap, item)
        high_water = max(high_water, len(heap))

    monkeypatch.setattr(telescope, "heappush", spying_push)
    streamed = list(build().records(START, END))
    assert streamed == expected
    assert len(sessions) > 500
    # pending records belong to sessions still open, not to the window
    assert 0 < high_water <= 2 * max(map(len, sessions))
    assert high_water < len(expected) / 20


@pytest.mark.parametrize("name", scenario_names())
def test_every_unit_of_a_scenario_is_in_time_order(name):
    # what merge_chunks requires of each unit, whatever reorders its trains
    scenario = Scenario(scenario_config(name, duration=HOUR))
    for position, unit in enumerate(scenario.record_units()):
        stamps = [record[0] for record in unit]
        assert stamps == sorted(stamps), f"{name}: unit {position} out of order"
