"""Federation partition equivalence: K telescopes == one telescope.

The acceptance pin of :mod:`repro.federate`: K vantages tiling the /9
by destination prefix, each running the full per-packet phase locally
and shipping state over the file-spool transport, must merge into a
:class:`PipelineResult` — and a rendered report — **byte-identical**
to a single telescope analyzing the whole prefix.  The spools are
written by ``spool_vantages``, the call ``repro federate`` makes: every
vantage is a ``--workers`` part over its own tile.
Damage to a stream's ``hello`` must be counted, skipped, reported
against each vantage's ``bye`` manifest, and must not perturb the
merged result.
"""

import dataclasses
import shutil
from unittest import mock

import pytest

from repro.core import QuicsandPipeline
from repro.core.pipeline import AnalysisConfig, merge_states
from repro.core.report import build_report
from repro.faults import corrupt_frame_bytes
from repro.federate import Aggregator, spool_vantages, tile_prefixes
from repro.federate.protocol import BYE, FINAL_STATE, HELLO, MAGIC, FrameDecoder
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
def baseline():
    s = scenario()
    result = make_pipeline(s).process(s.packets())
    report = build_report(result, research_weight=s.truth.research_weight)
    return result, report


@pytest.fixture(scope="module")
def spools(tmp_path_factory):
    """``K -> (spool directory, stream names)`` of K vantages tiling the
    /9, written once by ``spool_vantages``; tests aggregate (or damage)
    copies."""
    made = {}

    def spool(vantages):
        if vantages not in made:
            directory = tmp_path_factory.mktemp(f"k{vantages}")
            spooled = spool_vantages(
                scenario(), AnalysisConfig(), vantages, str(directory)
            )
            for name, _tile, frames in spooled:
                data = (directory / f"{name}.qsf").read_bytes()
                kinds = [frame.kind for frame in FrameDecoder().feed(data)]
                assert kinds == [HELLO, FINAL_STATE, BYE]
                assert frames == 3
            made[vantages] = directory, [name for name, _tile, _n in spooled]
        return made[vantages]

    return spool


def copy_spool(spools, vantages, spool_dir):
    """Copy K spooled vantage streams into ``spool_dir``; their names."""
    directory, names = spools(vantages)
    shutil.copytree(directory, spool_dir, dirs_exist_ok=True)
    return names


def run_federation(spool_dir, spools, vantages):
    """Copy K spooled vantage streams into ``spool_dir`` and aggregate them."""
    names = copy_spool(spools, vantages, spool_dir)
    s = scenario()
    aggregator = Aggregator(
        make_pipeline(s), research_weight=s.truth.research_weight
    )
    aggregator.consume_spool(str(spool_dir), names)
    return aggregator, aggregator.federate(), s


def decoded_frames(data: bytes) -> int:
    decoder = FrameDecoder()
    return sum(1 for _frame in decoder.feed(data))


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
def test_partition_equivalence_exact(tmp_path, spools, baseline, vantages):
    """K exact vantages over the spool reproduce the single telescope."""
    reference, reference_report = baseline
    _agg, fed, s = run_federation(tmp_path, spools, vantages)
    assert_identical(
        reference, fed.global_result, s.truth.research_weight, f"exact-k{vantages}"
    )
    assert (
        build_report(fed.global_result, research_weight=s.truth.research_weight)
        == reference_report
    )
    if vantages == 1:
        assert fed.dedup_hits == 0  # a lone vantage has nothing to dedup


def test_cross_telescope_dedup(tmp_path, spools, baseline):
    """The same flood seen from several tiles collapses to one."""
    _agg, fed, _s = run_federation(tmp_path, spools, 2)
    assert fed.dedup_hits > 0
    sightings = sum(len(flood.vantages) for flood in fed.global_floods)
    assert sightings == len(fed.global_floods) + fed.dedup_hits
    multi = [f for f in fed.global_floods if len(f.vantages) > 1]
    assert multi, "at least one flood must be visible from both tiles"
    for flood in fed.global_floods:
        assert flood.start <= flood.end
        assert set(flood.vantages) <= {"vantage-0", "vantage-1"}


def test_corrupt_spool_frames_skipped_not_raised(tmp_path, spools, baseline):
    """Fault-injected spool damage: counted, skipped, result unchanged.

    Each stream's ``hello`` absorbs the damage (the load-bearing
    final-state and bye frames are spared), so every stream keeps its
    spool-file name and the federation must still produce the bit-exact
    global report while reporting the corrupt count — and, per vantage,
    the one frame its ``bye`` manifest announced that never decoded.
    """
    reference, reference_report = baseline
    names = copy_spool(spools, 2, tmp_path)
    damaged_total = 0
    lost = {}
    for path in tmp_path.glob("*.qsf"):
        undamaged = decoded_frames(path.read_bytes())
        damaged, n = corrupt_frame_bytes(
            path.read_bytes(),
            SeededRng(5, path.name),
            rate=1.0,
            spare_kinds=(FINAL_STATE, BYE),
        )
        path.write_bytes(damaged)
        damaged_total += n
        lost[path.stem] = undamaged - decoded_frames(damaged)
    assert lost == {"vantage-0": 1, "vantage-1": 1}
    s = scenario()
    aggregator = Aggregator(
        make_pipeline(s), research_weight=s.truth.research_weight
    )
    aggregator.consume_spool(str(tmp_path), names)
    fed = aggregator.federate()
    assert fed.corrupt_frames == damaged_total == 2
    assert [stream.name for stream in fed.streams] == ["vantage-0", "vantage-1"]
    assert_identical(
        reference, fed.global_result, s.truth.research_weight, "corrupt-spool"
    )
    assert (
        build_report(fed.global_result, research_weight=s.truth.research_weight)
        == reference_report
    )
    assert {
        name: check["frames_lost"] for name, check in fed.manifests.items()
    } == lost
    assert not any(check["packets_missing"] for check in fed.manifests.values())
    report = aggregator.report(fed)
    assert f"corrupt frames skipped  {damaged_total}" in report
    assert "frames lost             vantage-0: 1, vantage-1: 1" in report
    assert "no manifest" not in report


def test_stream_without_bye_reports_no_manifest(tmp_path, spools):
    """A stream that ends before its ``bye`` (a vantage killed after the
    final state went out) still federates, flagged ``no manifest``; the
    complete stream beside it shows no manifest row at all."""
    names = copy_spool(spools, 2, tmp_path)
    path = tmp_path / "vantage-1.qsf"
    whole = path.read_bytes()
    path.write_bytes(whole[: whole.rindex(MAGIC)])  # the bye is the last frame
    s = scenario()
    aggregator = Aggregator(make_pipeline(s), research_weight=s.truth.research_weight)
    aggregator.consume_spool(str(tmp_path), names)
    fed = aggregator.federate()
    assert fed.corrupt_frames == 0
    assert fed.manifests["vantage-1"] is None
    assert fed.manifests["vantage-0"] == {"frames_lost": 0, "packets_missing": 0}
    report = aggregator.report(fed)
    assert "no manifest             vantage-1" in report
    assert "frames lost" not in report


def test_federate_rehydrates_each_state_once(tmp_path, spools):
    """Each vantage state is unpickled once, at ingest: the global merge
    leaves it as it was, so its own finalization can read it after."""
    from repro.core.pipeline import PartialState

    names = copy_spool(spools, 3, tmp_path)
    s = scenario()
    aggregator = Aggregator(make_pipeline(s), research_weight=s.truth.research_weight)
    with mock.patch.object(
        PartialState, "from_snapshot_bytes", wraps=PartialState.from_snapshot_bytes
    ) as rehydrate:
        aggregator.consume_spool(str(tmp_path), names)
        fed = aggregator.federate()
    assert rehydrate.call_count == 3
    assert sum(r.total_packets for r in fed.vantage_results.values()) == (
        fed.global_result.total_packets
    )


def test_extrapolation_check_rows(tmp_path, spools, baseline):
    reference, _ = baseline
    _agg, fed, _s = run_federation(tmp_path, spools, 2)
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


def test_merge_states_leaves_its_inputs_unchanged(tmp_path, spools):
    """``--workers`` and the aggregator both merge states they read
    again: every input pickles to the same bytes after the merge."""
    names = copy_spool(spools, 3, tmp_path)
    aggregator = Aggregator(QuicsandPipeline())
    states = [
        stream.state() for stream in aggregator.consume_spool(str(tmp_path), names)
    ]
    before = [state.snapshot_bytes() for state in states]
    merged = merge_states(states, AnalysisConfig())
    assert merged.total_packets == sum(state.total_packets for state in states)
    assert [state.snapshot_bytes() for state in states] == before


def test_merge_rejects_empty_input():
    with pytest.raises(ValueError, match="nothing to merge"):
        merge_states([], AnalysisConfig())
