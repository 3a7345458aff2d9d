"""Tests for scenario presets and the CSV/JSON result export."""

import csv
import json

import pytest

from repro.core import AnalysisConfig, QuicsandPipeline
from repro.core.export import export_results
from repro.telescope import Scenario, ScenarioConfig
from repro.telescope.presets import demo, paper_month
from repro.util.timeutil import APRIL_1_2021, DAY, HOUR, MAY_1_2021


# -- presets ------------------------------------------------------------


def test_demo_preset():
    config = demo()
    assert config.duration == 3 * HOUR
    assert isinstance(config, ScenarioConfig)


def test_paper_month_preset_window():
    config = paper_month()
    assert config.start == APRIL_1_2021
    assert config.end == MAY_1_2021
    assert config.duration == pytest.approx(30 * DAY)


def test_preset_overrides():
    config = demo(seed=7, duration=1 * HOUR)
    assert config.seed == 7
    assert config.duration == HOUR


def test_paper_month_event_rates_land_at_paper_scale():
    """Planned floods over the month should approach the paper's 2905."""
    config = paper_month()
    expected = config.attacks.quic_floods_per_hour * config.duration / HOUR
    assert expected == pytest.approx(2880, rel=0.01)  # ~4/hour x 30 days


def test_demo_scenario_builds_and_generates():
    scenario = Scenario(demo(seed=3, duration=0.2 * HOUR, research_sample=1 / 8192))
    count = sum(1 for _ in scenario.packets())
    assert count > 50


# -- export ------------------------------------------------------------


@pytest.fixture(scope="module")
def exported(tmp_path_factory):
    scenario = Scenario(demo(seed=12, duration=2 * HOUR, research_sample=1 / 2048))
    pipeline = QuicsandPipeline(
        registry=scenario.internet.registry,
        census=scenario.internet.census,
        config=AnalysisConfig(retry_probe_count=0),
    )
    result = pipeline.process(scenario.packets())
    directory = tmp_path_factory.mktemp("export")
    files = export_results(result, directory)
    return result, directory, files


def test_export_writes_all_files(exported):
    _result, directory, files = exported
    names = {f.name for f in files}
    assert "summary.json" in names
    for expected in (
        "fig2_hourly.csv",
        "fig3_hourly.csv",
        "fig4_timeout.csv",
        "fig5_network_types.csv",
        "fig6_victims.csv",
        "fig7_attacks.csv",
        "fig8_categories.csv",
        "fig12_overlap.csv",
        "fig13_gaps.csv",
    ):
        assert expected in names, expected
        assert (directory / expected).stat().st_size > 0


def test_export_summary_consistent(exported):
    result, directory, _files = exported
    summary = json.loads((directory / "summary.json").read_text())
    assert summary["total_packets"] == result.total_packets
    assert summary["quic_attacks"] == len(result.quic_attacks)
    assert summary["retry_deployed"] is False  # audited, nothing found
    assert 0 <= summary["request_share"] <= 1


def test_export_fig7_rows_match_attacks(exported):
    result, directory, _files = exported
    with open(directory / "fig7_attacks.csv") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == len(result.quic_attacks) + len(result.common_attacks)
    vectors = {row["vector"] for row in rows}
    assert "quic" in vectors


def test_export_fig6_sorted_descending(exported):
    _result, directory, _files = exported
    with open(directory / "fig6_victims.csv") as handle:
        counts = [int(row["attacks"]) for row in csv.DictReader(handle)]
    assert counts == sorted(counts, reverse=True)


def test_export_fig4_monotone(exported):
    _result, directory, _files = exported
    with open(directory / "fig4_timeout.csv") as handle:
        sessions = [int(row["sessions"]) for row in csv.DictReader(handle)]
    assert sessions == sorted(sessions, reverse=True)


def test_export_creates_directory(tmp_path):
    scenario = Scenario(demo(seed=13, duration=0.2 * HOUR, research_sample=1 / 8192))
    pipeline = QuicsandPipeline(config=AnalysisConfig(retry_probe_count=0))
    result = pipeline.process(scenario.packets())
    target = tmp_path / "nested" / "dir"
    files = export_results(result, target)
    assert target.is_dir()
    assert files
