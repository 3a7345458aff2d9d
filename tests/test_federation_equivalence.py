"""Federation partition equivalence: K telescopes == one telescope.

The acceptance pin of :mod:`repro.federate`: K vantages tiling the /9
by destination prefix, each running the full per-packet phase locally
and handing its closed state back in memory, must merge into a
:class:`PipelineResult` — and a rendered report — **byte-identical**
to a single telescope analyzing the whole prefix.  The vantages come
from ``run_vantages``, the call ``repro federate`` makes: every vantage
is a ``--workers`` part over its own tile.
"""

import copy
import dataclasses

import pytest

from repro.core import QuicsandPipeline
from repro.core.pipeline import AnalysisConfig, merge_states
from repro.core.report import build_report
from repro.federate import Aggregator, run_vantages, tile_prefixes
from repro.net.addresses import IPv4Network
from repro.telescope import Scenario, ScenarioConfig
from repro.util.timeutil import HOUR

SCENARIO_KW = dict(seed=11, duration=HOUR, research_sample=1 / 2048)

#: helper objects compared by identity in PipelineResult (same set as
#: tests/test_lane_equivalence.py)
_IDENTITY_FIELDS = {"config", "timeout_sweep", "quic_detector", "common_detector"}


def scenario():
    return Scenario(ScenarioConfig(**SCENARIO_KW))


def make_pipeline(s):
    return QuicsandPipeline(
        registry=s.internet.registry,
        census=s.internet.census,
        greynoise=s.internet.greynoise,
        config=AnalysisConfig(),
    )


@pytest.fixture(scope="module")
def baseline():
    s = scenario()
    result = make_pipeline(s).process(s.packets())
    report = build_report(result, research_weight=s.truth.research_weight)
    return result, report


@pytest.fixture(scope="module")
def vantages():
    """``K -> (name, tile, state, snapshot)`` of K vantages tiling the
    /9, run once by ``run_vantages``; each call hands out a deep copy,
    because federating consumes the states."""
    made = {}

    def run(count):
        if count not in made:
            made[count] = run_vantages(scenario(), AnalysisConfig(), count)
            names = [name for name, _tile, _state, _snapshot in made[count]]
            assert names == [f"vantage-{i}" for i in range(count)]
        return copy.deepcopy(made[count])

    return run


def run_federation(vantages, count):
    """Aggregate a copy of K vantages."""
    s = scenario()
    aggregator = Aggregator(
        make_pipeline(s), research_weight=s.truth.research_weight
    )
    return aggregator, aggregator.federate(vantages(count)), s


def assert_identical(reference, other, weight, label):
    for field in dataclasses.fields(reference):
        if field.name in _IDENTITY_FIELDS:
            continue
        assert getattr(reference, field.name) == getattr(
            other, field.name
        ), (label, field.name)
    assert reference.timeout_sweep.sweep(range(1, 61)) == other.timeout_sweep.sweep(
        range(1, 61)
    ), label
    assert build_report(reference, research_weight=weight) == build_report(
        other, research_weight=weight
    ), label


@pytest.mark.parametrize("count", [1, 2, 3, 4])
def test_partition_equivalence_exact(vantages, baseline, count):
    """K exact vantages reproduce the single telescope."""
    reference, reference_report = baseline
    _agg, fed, s = run_federation(vantages, count)
    assert_identical(
        reference, fed.global_result, s.truth.research_weight, f"exact-k{count}"
    )
    assert (
        build_report(fed.global_result, research_weight=s.truth.research_weight)
        == reference_report
    )
    if count == 1:
        assert fed.dedup_hits == 0  # a lone vantage has nothing to dedup


def test_cross_telescope_dedup(vantages):
    """The same flood seen from several tiles collapses to one."""
    _agg, fed, _s = run_federation(vantages, 2)
    assert fed.dedup_hits > 0
    sightings = sum(len(flood.vantages) for flood in fed.global_floods)
    assert sightings == len(fed.global_floods) + fed.dedup_hits
    multi = [f for f in fed.global_floods if len(f.vantages) > 1]
    assert multi, "at least one flood must be visible from both tiles"
    for flood in fed.global_floods:
        assert flood.start <= flood.end
        assert set(flood.vantages) <= {"vantage-0", "vantage-1"}


def test_extrapolation_check_rows(vantages, baseline):
    reference, _ = baseline
    _agg, fed, _s = run_federation(vantages, 2)
    assert set(fed.extrapolation) == {"vantage-0", "vantage-1"}
    for check in fed.extrapolation.values():
        assert check["share"] == 0.5
        assert check["estimate"] == check["packets"] * 2
    total = sum(c["packets"] for c in fed.extrapolation.values())
    assert total == reference.total_packets


# -- merge-layer unit pins -------------------------------------------------


def test_tile_prefixes_partition_exactly():
    base = IPv4Network.from_cidr("44.0.0.0/9")
    for count in (1, 2, 3, 4, 5, 8):
        tiles = tile_prefixes(base, count)
        assert len(tiles) == count
        assert sum(t.size for t in tiles) == base.size
        # address-ordered and disjoint: each tile starts where the
        # previous one ended
        cursor = base.network
        for tile in tiles:
            assert tile.network == cursor
            cursor += tile.size


def test_tile_prefixes_rejects_bad_counts():
    with pytest.raises(ValueError):
        tile_prefixes("44.0.0.0/9", 0)
    with pytest.raises(ValueError):
        tile_prefixes("44.0.0.0/31", 3)


def test_merge_states_leaves_its_inputs_unchanged(vantages):
    """``--workers`` and the aggregator both merge states they read
    again: every input pickles to the same bytes after the merge."""
    states = [state for _name, _tile, state, _snapshot in vantages(3)]
    before = [state.snapshot_bytes() for state in states]
    merged = merge_states(states, AnalysisConfig())
    assert merged.total_packets == sum(state.total_packets for state in states)
    assert [state.snapshot_bytes() for state in states] == before


def test_merge_rejects_empty_input():
    with pytest.raises(ValueError, match="nothing to merge"):
        merge_states([], AnalysisConfig())
