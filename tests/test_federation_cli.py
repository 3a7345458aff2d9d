"""CLI coverage for ``python -m repro federate``."""

import io
import json
import re

import pytest

from repro.cli import main

FAST = ["--hours", "0.5", "--research-sample", "0.0005", "--seed", "11"]


def run_cli(argv):
    stream = io.StringIO()
    code = main(argv, stream=stream)
    return code, stream.getvalue()


def packets_captured(out):
    return int(re.search(r"packets captured\s+([\d,]+)", out)[1].replace(",", ""))


def test_federate_in_memory_k3_then_k2():
    """Every tiling covers the whole /9: a K=3 run and a K=2 run name
    their own vantages and capture the same packets."""
    code, out = run_cli(["federate", *FAST, "--vantages", "3"])
    assert code == 0
    assert "vantages          3: vantage-0, vantage-1, vantage-2\n" in out
    captured_k3 = packets_captured(out)
    code, out = run_cli(["federate", *FAST, "--vantages", "2"])
    assert code == 0
    assert "Federation overview" in out
    assert "dedup hits" in out
    assert "Per-vantage differential" in out
    assert "Extrapolation check" in out
    # the ordinary single-telescope report follows the federation part
    assert "Overview (Figure 2)" in out
    assert "vantages          2: vantage-0, vantage-1\n" in out
    assert packets_captured(out) == captured_k3


def test_federate_report_out_and_sketch(tmp_path):
    report_path = tmp_path / "federation.txt"
    code, out = run_cli(
        [
            "federate",
            *FAST,
            "--vantages",
            "2",
            "--report-out",
            str(report_path),
        ]
    )
    assert code == 0
    assert "vantages          2: vantage-0, vantage-1" in out
    text = report_path.read_text()
    assert "Federation overview" in text
    # sketch-mode federation, the socket roles and the spool are gone:
    # each removed flag is a usage error
    for removed in (
        ["--sketch"],
        ["--listen", "h:1"],
        ["--connect", "h:1"],
        ["--spool", "d"],
    ):
        code, _out = run_cli(["federate", *FAST, *removed])
        assert code == 2, removed


def test_federate_rejects_zero_vantages():
    code, out = run_cli(["federate", *FAST, "--vantages", "0"])
    assert code == 2
    assert "--vantages" in out


@pytest.fixture
def obs_restored():
    """--metrics-out enables the process-wide registry; undo after."""
    from repro import obs

    was = obs.enabled()
    obs.REGISTRY.reset()
    yield
    obs.REGISTRY.reset()
    obs.set_enabled(was)


def test_federate_metrics_out(tmp_path, obs_restored):
    """Each vantage is a part with its own registry: the packet counters
    count each captured packet once, and every vantage has its own
    ``repro_parallel_part_seconds`` row."""
    metrics = tmp_path / "fed"
    code, out = run_cli(
        ["federate", *FAST, "--vantages", "2", "--metrics-out", str(metrics)]
    )
    assert code == 0
    prom = (tmp_path / "fed.prom").read_text()
    for family in (
        "repro_federate_dedup_hits_total",
        "repro_federate_merge_seconds",
        "repro_federate_vantage_lag_seconds",
    ):
        assert family in prom, family
    captured = packets_captured(out)
    families = {
        family["name"]: family["samples"]
        for family in json.loads((tmp_path / "fed.json").read_text())["metrics"]
    }
    for name in ("repro_pipeline_packets_total", "repro_telescope_packets_total"):
        assert [sample["value"] for sample in families[name]] == [captured], name
    workers = [
        sample["labels"]["worker"]
        for sample in families["repro_parallel_part_seconds"]
    ]
    assert sorted(workers) == ["0", "1"]
