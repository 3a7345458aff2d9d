"""The serial record merge: sorted chunks instead of a k-way heap.

``merge_chunks`` must be ``heapq.merge`` — same records, same order,
ties broken toward the earlier unit and, inside a unit, toward the
earlier record — while never touching a unit before its start bound is
due, and the misconfiguration unit it feeds from must stream rather
than materialise its window.
"""

import heapq
import os
from itertools import chain
from operator import itemgetter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.telescope import Scenario, ScenarioConfig, attacks, noise
from repro.telescope.noise import MisconfigurationModel
from repro.telescope.telescope import merge_chunks
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


# -- misconfiguration streams its window ---------------------------------


def _misconfig(scenario_seed=5):
    scenario = Scenario(ScenarioConfig(seed=scenario_seed, duration=HOUR, research_sample=1 / 2048))
    return MisconfigurationModel(
        internet=scenario.internet, rng=SeededRng(99), sessions_per_day=150.0
    )


def test_misconfig_records_stream_with_a_bounded_reorder_heap(monkeypatch):
    start, end = APRIL_1_2021, APRIL_1_2021 + 7 * DAY

    # the reference: every session of the window drawn up front, one stable sort
    model = _misconfig()
    rate = model.sessions_per_day / 86400.0
    sessions, t = [], start
    while True:
        t += model.rng.expovariate(rate)
        if t >= end:
            break
        sessions.append(model._session_items(t))
    expected = [
        r for r in sorted(chain.from_iterable(sessions), key=itemgetter(0)) if start <= r[0] < end
    ]

    high_water = 0

    def spying_push(heap, item):
        nonlocal high_water
        heapq.heappush(heap, item)
        high_water = max(high_water, len(heap))

    monkeypatch.setattr(noise, "heappush", spying_push)
    streamed = list(_misconfig().records(start, end))
    assert streamed == expected
    assert len(sessions) > 500
    # pending records belong to sessions still open, not to the window
    assert 0 < high_water <= 2 * max(map(len, sessions))
    assert high_water < len(expected) / 20
