"""Federation partition equivalence: K telescopes == one telescope.

The acceptance pin of :mod:`repro.federate`: K vantages tiling the /9
by destination prefix, each running the full per-packet phase locally
and shipping state over the file-spool transport, must merge into a
:class:`PipelineResult` — and a rendered report — **byte-identical**
to a single telescope analyzing the whole prefix.  Exact and sketch
vantage modes both pin (sketch vantages ship exact state alongside
the tier).  Damage to interim spool frames must be counted, skipped,
and must not perturb the merged result.
"""

import dataclasses

import pytest

from repro.core import QuicsandPipeline
from repro.core.pipeline import AnalysisConfig
from repro.core.report import build_report
from repro.core.sessions import TimeoutSweep
from repro.faults import corrupt_frame_bytes
from repro.federate import (
    Aggregator,
    SpoolWriter,
    Vantage,
    VantageConfig,
    merge_federated_states,
    tile_prefixes,
)
from repro.federate.protocol import BYE, FINAL_STATE, HELLO, SKETCH
from repro.net.addresses import IPv4Network
from repro.telescope import Scenario, ScenarioConfig
from repro.util.rng import SeededRng
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
def shared_packets():
    """The full-prefix capture, generated once and fanned out."""
    return list(scenario().packets())


@pytest.fixture(scope="module")
def baseline(shared_packets):
    s = scenario()
    result = make_pipeline(s).process(iter(shared_packets))
    report = build_report(result, research_weight=s.truth.research_weight)
    return result, report


def run_federation(spool_dir, shared_packets, vantages, mode):
    """Spool K vantage streams and aggregate them."""
    tiles = tile_prefixes("44.0.0.0/9", vantages)
    for index, tile in enumerate(tiles):
        vantage = Vantage(
            VantageConfig(
                name=f"v{index}",
                prefix=str(tile),
                mode=mode,
                snapshot_every=1800.0,
                scenario=ScenarioConfig(**SCENARIO_KW),
                analysis=AnalysisConfig(),
            )
        )
        with SpoolWriter(str(spool_dir), f"v{index}") as writer:
            vantage.run(writer, packets=shared_packets)
    s = scenario()
    aggregator = Aggregator(
        make_pipeline(s), research_weight=s.truth.research_weight
    )
    aggregator.consume_spool(str(spool_dir))
    return aggregator, aggregator.federate(), s


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


@pytest.mark.parametrize("vantages", [1, 2, 3, 4])
def test_partition_equivalence_exact(tmp_path, shared_packets, baseline, vantages):
    """K exact vantages over the spool reproduce the single telescope."""
    reference, reference_report = baseline
    _agg, fed, s = run_federation(tmp_path, shared_packets, vantages, "exact")
    assert_identical(
        reference, fed.global_result, s.truth.research_weight, f"exact-k{vantages}"
    )
    assert (
        build_report(fed.global_result, research_weight=s.truth.research_weight)
        == reference_report
    )


@pytest.mark.parametrize("vantages", [1, 3])
def test_partition_equivalence_sketch(tmp_path, shared_packets, baseline, vantages):
    """Sketch vantages ship exact state too: global result still pins."""
    reference, reference_report = baseline
    _agg, fed, s = run_federation(tmp_path, shared_packets, vantages, "sketch")
    assert_identical(
        reference, fed.global_result, s.truth.research_weight, f"sketch-k{vantages}"
    )
    assert (
        build_report(fed.global_result, research_weight=s.truth.research_weight)
        == reference_report
    )
    for stream in fed.streams:
        assert stream.mode == "sketch"
        assert stream.sketch is not None
        assert stream.sketch["tier"].packet_counts.width > 0


def test_sketch_vantage_classifies_each_packet_once(shared_packets):
    """A sketch vantage feeds two sinks from one classification pass:
    its classifier tallies (memo hits and misses, class counts) are the
    exact vantage's, not double."""

    class Discard:
        def send(self, frame_bytes):
            pass

    states = {
        mode: Vantage(
            VantageConfig(
                name=mode,
                mode=mode,
                scenario=ScenarioConfig(**SCENARIO_KW),
                analysis=AnalysisConfig(),
            )
        ).run(Discard(), packets=shared_packets)
        for mode in ("exact", "sketch")
    }
    exact, sketch = states["exact"], states["sketch"]
    assert exact.cache_hits > 0
    assert (sketch.cache_hits, sketch.cache_misses) == (
        exact.cache_hits,
        exact.cache_misses,
    )
    assert sketch.class_counts == exact.class_counts
    assert sum(sketch.class_counts.values()) == sketch.total_packets


def test_cross_telescope_dedup(tmp_path, shared_packets, baseline):
    """The same flood seen from several tiles collapses to one."""
    _agg, fed, _s = run_federation(tmp_path, shared_packets, 2, "exact")
    assert fed.dedup_hits > 0
    sightings = sum(len(flood.vantages) for flood in fed.global_floods)
    assert sightings == len(fed.global_floods) + fed.dedup_hits
    multi = [f for f in fed.global_floods if len(f.vantages) > 1]
    assert multi, "at least one flood must be visible from both tiles"
    for flood in fed.global_floods:
        assert flood.start <= flood.end
        assert set(flood.vantages) <= {"v0", "v1"}


def test_corrupt_spool_frames_skipped_not_raised(tmp_path, shared_packets, baseline):
    """Fault-injected spool damage: counted, skipped, result unchanged.

    Interim ``state`` frames absorb all the damage (the load-bearing
    hello/final-state/sketch/bye frames are spared), so the federation
    must still produce the bit-exact global report while reporting a
    nonzero corrupt count.
    """
    reference, reference_report = baseline
    tiles = tile_prefixes("44.0.0.0/9", 2)
    for index, tile in enumerate(tiles):
        vantage = Vantage(
            VantageConfig(
                name=f"v{index}",
                prefix=str(tile),
                mode="exact",
                snapshot_every=600.0,  # many interim frames to damage
                scenario=ScenarioConfig(**SCENARIO_KW),
                analysis=AnalysisConfig(),
            )
        )
        with SpoolWriter(str(tmp_path), f"v{index}") as writer:
            vantage.run(writer, packets=shared_packets)
    damaged_total = 0
    for path in tmp_path.glob("*.qsf"):
        damaged, n = corrupt_frame_bytes(
            path.read_bytes(),
            SeededRng(5, path.name),
            rate=1.0,
            spare_kinds=(HELLO, FINAL_STATE, SKETCH, BYE),
        )
        path.write_bytes(damaged)
        damaged_total += n
    assert damaged_total > 0, "need interim frames to damage"
    s = scenario()
    aggregator = Aggregator(
        make_pipeline(s), research_weight=s.truth.research_weight
    )
    aggregator.consume_spool(str(tmp_path))
    fed = aggregator.federate()
    assert fed.corrupt_frames == damaged_total
    assert_identical(
        reference, fed.global_result, s.truth.research_weight, "corrupt-spool"
    )
    assert (
        build_report(fed.global_result, research_weight=s.truth.research_weight)
        == reference_report
    )
    report = aggregator.report(fed)
    assert f"corrupt frames skipped  {damaged_total}" in report


def test_extrapolation_check_rows(tmp_path, shared_packets, baseline):
    reference, _ = baseline
    _agg, fed, _s = run_federation(tmp_path, shared_packets, 2, "exact")
    assert set(fed.extrapolation) == {"v0", "v1"}
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


def test_merge_rejects_plain_sweep_states():
    from repro.core.pipeline import PartialState

    config = AnalysisConfig()
    state = PartialState.initial(config)
    assert isinstance(state.sweep, TimeoutSweep)
    with pytest.raises(ValueError, match="RecordingSweep"):
        merge_federated_states([state], config)


def test_merge_rejects_empty_input():
    with pytest.raises(ValueError, match="no vantage states"):
        merge_federated_states([], AnalysisConfig())
