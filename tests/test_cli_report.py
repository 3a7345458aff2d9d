"""Tests for the CLI and the full-text report."""

import io
import re

import pytest

from repro.cli import main
from repro.core import QuicsandPipeline
from repro.core.report import build_report
from repro.telescope import Scenario, ScenarioConfig
from repro.util.timeutil import HOUR

FAST = ["--hours", "0.5", "--research-sample", "0.0005", "--seed", "11"]


def run_cli(argv):
    stream = io.StringIO()
    code = main(argv, stream=stream)
    return code, stream.getvalue()


@pytest.fixture(scope="module")
def small_result():
    scenario = Scenario(ScenarioConfig(seed=11, duration=2 * HOUR, research_sample=1 / 2048))
    pipeline = QuicsandPipeline(
        registry=scenario.internet.registry,
        census=scenario.internet.census,
        greynoise=scenario.internet.greynoise,
    )
    return scenario, pipeline.process(scenario.packets())


# -- report ------------------------------------------------------------


def test_report_contains_all_sections(small_result):
    scenario, result = small_result
    text = build_report(result, research_weight=scenario.truth.research_weight)
    for marker in (
        "Overview (Figure 2)",
        "Traffic types (Figure 3)",
        "Session timeout sweep (Figure 4)",
        "Source network types (Figure 5)",
        "DoS floods (Figures 6, 7)",
        "Multi-vector attacks (Figures 8, 12, 13)",
        "Attack pattern validity (Section 6)",
        "RETRY audit (Section 6)",
    ):
        assert marker in text, f"missing section {marker!r}"


def test_report_mentions_paper_baselines(small_result):
    scenario, result = small_result
    text = build_report(result)
    assert "paper: 98.5%" in text
    assert "paper: 255 s" in text
    assert "paper: 51%" in text


def test_report_without_attacks():
    scenario = Scenario(
        ScenarioConfig(seed=1, duration=0.2 * HOUR, research_sample=1 / 4096, include_attacks=False)
    )
    pipeline = QuicsandPipeline(registry=scenario.internet.registry)
    result = pipeline.process(scenario.packets())
    text = build_report(result)
    assert "No QUIC flood attacks detected." in text


# -- cli ------------------------------------------------------------


def test_cli_report_command():
    code, out = run_cli(["report"] + FAST)
    assert code == 0
    assert "Overview (Figure 2)" in out
    assert "RETRY" in out


def test_cli_report_writes_file(tmp_path):
    out_file = tmp_path / "report.txt"
    code, _out = run_cli(["report"] + FAST + ["--report-out", str(out_file)])
    assert code == 0
    assert "Overview (Figure 2)" in out_file.read_text()


@pytest.mark.parametrize(
    "needs_packets",
    [["--faults", "garbage=0.02", "--fault-seed", "7"], ["--workers", "2"]],
    ids=["faults", "workers"],
)
def test_cli_report_gen_workers_reach_the_packet_arm(needs_packets):
    """``--gen-workers`` is gone from both arms of ``report`` — the
    generator is split by ``--workers`` alone: an unknown option (exit
    2) where each arm runs without it."""
    argv = ["report"] + FAST + needs_packets
    assert run_cli(argv + ["--gen-workers", "2"])[0] == 2
    code, out = run_cli(argv)
    assert code == 0 and "Overview (Figure 2)" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--out", "unused.pcap", "--gen-workers", "2"],
        ["analyze", "unused.pcap", "--workers", "2"],
    ],
    ids=["simulate-gen-workers", "analyze-workers"],
)
def test_cli_retired_worker_options_are_unknown(argv):
    assert run_cli(argv)[0] == 2


def test_cli_report_workers_refuse_faults():
    code, out = run_cli(
        ["report"] + FAST + ["--workers", "2", "--faults", "bitflip=0.01"]
    )
    assert code == 2
    assert "one packet stream" in out


def test_cli_report_workers_match_serial():
    code, serial = run_cli(["report"] + FAST)
    assert code == 0
    for workers in ("2", "3"):
        assert run_cli(["report"] + FAST + ["--workers", workers]) == (0, serial)


def test_cli_simulate_then_analyze(tmp_path):
    pcap = tmp_path / "capture.pcap"
    code, out = run_cli(["simulate"] + FAST + ["--out", str(pcap)])
    assert code == 0
    assert pcap.stat().st_size > 1000
    assert "wrote" in out

    code, out = run_cli(["analyze", str(pcap)] + FAST)
    assert code == 0
    assert "Overview (Figure 2)" in out


def test_cli_analyze_without_correlation(tmp_path):
    pcap = tmp_path / "capture.pcap"
    run_cli(["simulate"] + FAST + ["--out", str(pcap)])
    code, out = run_cli(["analyze", str(pcap), "--no-correlation"] + FAST)
    assert code == 0
    assert "Overview" in out


def test_cli_table1():
    code, out = run_cli(["table1"])
    assert code == 0
    assert "Table 1" in out
    assert "auto=128" in out
    assert out.count("100%") >= 4


def test_cli_probe():
    code, out = run_cli(["probe"] + FAST + ["--count", "3"])
    assert code == 0
    assert "Active RETRY probes" in out
    assert out.count("yes") >= 3  # handshakes complete
    lines = [l for l in out.splitlines() if l and l[0].isdigit()]
    assert len(lines) == 3


def test_cli_profile_profiles_what_report_runs():
    code, out = run_cli(
        ["profile", "--hours", "0.1", "--research-sample", "0.0005", "--top", "40"]
    )
    assert code == 0
    stages, rates = out.splitlines()[:2]
    assert re.search(r"both  \([\d,]+ packets, \d+ planned QUIC floods\)", stages)
    assert re.search(r"generate: .+ \([\d,]+ pps\) +analyze: .+ \([\d,]+ pps\)", rates)
    for ran in ("flood_records", "observe_records"):
        assert ran in out
    for reference_only in ("flood_packets", "observe_packets"):
        assert reference_only not in out


def test_cli_profile_has_no_batch_stage():
    code, _out = run_cli(["profile", "--stage", "batch"])
    assert code == 2


def test_cli_requires_command():
    # usage errors come back as exit code 2, never as an exception
    code, _out = run_cli([])
    assert code == 2


def test_cli_unknown_command():
    code, _out = run_cli(["frobnicate"])
    assert code == 2


def test_cli_bad_flag_value():
    code, _out = run_cli(["report", "--hours", "not-a-number"])
    assert code == 2


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["watch", "--hours", "0.1", "--batch-size", "0"], "--batch-size"),
        (["watch", "--hours", "0.1", "--speed", "-1"], "--speed"),
        (["report", "--hours", "0.1", "--research-sample", "0"], "--research-sample"),
        (["report", "--hours", "0.1", "--research-sample", "-0.5"], "--research-sample"),
        (["report", "--hours", "-1"], "--hours"),
        (["report", "--hours", "inf"], "--hours"),
        (["probe", "--hours", "0.1", "--count", "-1"], "--count"),
        (["profile", "--hours", "0.1", "--top", "0"], "--top"),
        (["profile", "--hours", "0.1", "--top", "-1"], "--top"),
        (["report", "--hours", "0.1", "--workers", "0"], "--workers"),
        (["report", "--hours", "0.1", "--workers", "-1"], "--workers"),
        (["watch", "--pcap", "unused.pcap", "--idle-timeout", "nan"], "--idle-timeout"),
        (["watch", "--pcap", "unused.pcap", "--idle-timeout", "-1"], "--idle-timeout"),
        (["watch", "--hours", "0.1", "--status-every", "nan"], "--status-every"),
        (["watch", "--hours", "0.1", "--status-every", "-1"], "--status-every"),
    ],
    ids=[
        "batch-size-0",
        "speed-negative",
        "sample-0",
        "sample-negative",
        "hours-negative",
        "hours-infinite",
        "count-negative",
        "top-0",
        "top-negative",
        "workers-0",
        "workers-negative",
        "idle-timeout-nan",
        "idle-timeout-negative",
        "status-every-nan",
        "status-every-negative",
    ],
)
def test_cli_out_of_range_flag_is_usage_error(argv, flag, capsys):
    # argparse refuses the value before any work starts: exit 2, the flag
    # named on stderr, no traceback and no run over a nonsense window
    code, out = run_cli(argv)
    assert code == 2
    assert flag in capsys.readouterr().err
    assert out == ""


def test_cli_version(capsys):
    import repro

    code, _out = run_cli(["--version"])
    assert code == 0
    captured = capsys.readouterr()  # argparse prints to sys.stdout
    assert captured.out.strip() == f"repro {repro.__version__}"


def test_cli_version_falls_back_without_a_distribution(monkeypatch):
    """A source tree with no installed ``repro`` distribution reports the
    package's own version; any other lookup error is not swallowed."""
    import importlib.metadata

    import repro
    from repro.cli import _package_version

    def missing(name):
        raise importlib.metadata.PackageNotFoundError(name)

    monkeypatch.setattr(repro, "__version__", "0.0.0-source")
    monkeypatch.setattr(importlib.metadata, "version", missing)
    assert _package_version() == "0.0.0-source"

    def broken(name):
        raise OSError("metadata unreadable")

    monkeypatch.setattr(importlib.metadata, "version", broken)
    with pytest.raises(OSError):
        _package_version()


def test_cli_report_named_scenario_matches_golden():
    """``report --scenario`` renders the registry preset — byte-equal
    to the golden snapshot the test suite pins for that scenario."""
    import pathlib

    code, out = run_cli(["report", "--scenario", "adv-vn-retry"])
    assert code == 0
    golden = (
        pathlib.Path(__file__).parent / "data" / "scenario_adv-vn-retry.txt"
    ).read_text()
    assert out == golden + "\n"


def test_cli_scenario_accepts_explicit_overrides():
    """Explicit --hours/--seed win over the preset; defaults do not
    clobber the preset's own window."""
    from repro.cli import _scenario_config
    from repro.telescope.presets import scenario_config

    code, out = run_cli(
        ["report", "--scenario", "adv-h3-flood", "--hours", "0.1", "--seed", "7"]
    )
    assert code == 0
    assert "Overview (Figure 2)" in out

    import argparse

    preset = scenario_config("adv-h3-flood")
    args = argparse.Namespace(
        scenario="adv-h3-flood",
        seed=None,
        hours=None,
        research_sample=None,
    )
    assert _scenario_config(args) == preset  # absent flags leave the preset alone
    args.hours = 0.1
    args.seed = 7
    overridden = _scenario_config(args)
    assert overridden.seed == 7
    assert overridden.duration == pytest.approx(0.1 * HOUR)
    assert overridden.include_attacks == preset.include_attacks


def test_cli_scenario_explicit_flag_at_its_default_still_overrides():
    """A flag given on the command line wins over the preset even when
    its value equals the CLI default (``ibr-scanners`` is 1 h at 1/2048)."""
    from repro.cli import _build_parser, _scenario_config

    args = _build_parser().parse_args(
        ["report", "--scenario", "ibr-scanners", "--hours", "6",
         "--research-sample", "0.00390625"]
    )
    config = _scenario_config(args)
    assert config.duration == 6 * HOUR
    assert config.research_sample == 1 / 256


def test_cli_unknown_scenario_is_usage_error():
    code, _out = run_cli(["report", "--scenario", "no-such-scenario"])
    assert code == 2


def test_cli_report_with_export(tmp_path):
    export_dir = tmp_path / "data"
    code, out = run_cli(["report"] + FAST + ["--export", str(export_dir)])
    assert code == 0
    assert "exported" in out
    assert (export_dir / "summary.json").exists()
    assert (export_dir / "fig7_attacks.csv").exists()


# -- metrics export and the stats subcommand ---------------------------


@pytest.fixture
def obs_restored():
    """--metrics-out enables the process-wide registry; undo after."""
    from repro import obs

    was = obs.enabled()
    obs.REGISTRY.reset()
    yield
    obs.REGISTRY.reset()
    obs.set_enabled(was)


def test_cli_analyze_metrics_out(tmp_path, obs_restored):
    import json

    pcap = tmp_path / "t.pcap"
    code, _ = run_cli(["simulate"] + FAST + ["--out", str(pcap)])
    assert code == 0

    metrics = tmp_path / "run.json"
    code, out = run_cli(
        ["analyze", str(pcap)] + FAST + ["--metrics-out", str(metrics)]
    )
    assert code == 0
    assert "metrics written to" in out

    prom = tmp_path / "run.prom"
    assert metrics.exists() and prom.exists()

    # the JSON side parses and carries pipeline counters
    data = json.loads(metrics.read_text())
    by_name = {m["name"]: m for m in data["metrics"]}
    packets = by_name["repro_pipeline_packets_total"]["samples"][0]["value"]
    assert packets > 0

    # the Prometheus side is well-formed text exposition
    text = prom.read_text()
    assert "# TYPE repro_pipeline_packets_total counter\n" in text
    assert f"repro_pipeline_packets_total {packets}\n" in text
    for line in text.splitlines():
        assert line.startswith("#") or line == "" or " " in line

    # stats renders the file into the human summary
    code, out = run_cli(["stats", str(metrics)])
    assert code == 0
    assert "repro metrics summary" in out
    assert "repro_pipeline_packets_total" in out


def test_cli_stats_bad_file(tmp_path):
    code, out = run_cli(["stats", str(tmp_path / "missing.json")])
    assert code == 2
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    code, out = run_cli(["stats", str(bad)])
    assert code == 2
