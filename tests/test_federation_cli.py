"""CLI coverage for ``python -m repro federate``."""

import io
import json
import re
import threading

import pytest

from repro.cli import _parse_endpoint, main

FAST = ["--hours", "0.5", "--research-sample", "0.0005", "--seed", "11"]


def run_cli(argv):
    stream = io.StringIO()
    code = main(argv, stream=stream)
    return code, stream.getvalue()


def test_parse_endpoint():
    assert _parse_endpoint("127.0.0.1:9000") == ("127.0.0.1", 9000)
    assert _parse_endpoint("localhost:0") == ("localhost", 0)
    assert _parse_endpoint("no-port") is None
    assert _parse_endpoint(":123") is None
    assert _parse_endpoint("host:port") is None


def test_federate_in_process_spool(tmp_path):
    spool = tmp_path / "spool"
    code, out = run_cli(
        ["federate", *FAST, "--vantages", "2", "--spool", str(spool)]
    )
    assert code == 0
    assert "Federation overview" in out
    assert "dedup hits" in out
    assert "Per-vantage differential" in out
    assert "Extrapolation check" in out
    # the ordinary single-telescope report follows the federation part
    assert "Overview (Figure 2)" in out
    # an explicit spool is kept on disk for inspection
    assert "spool kept at" in out
    assert sorted(p.name for p in spool.glob("*.qsf")) == [
        "vantage-0.qsf",
        "vantage-1.qsf",
    ]


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
    assert "vantages                2: vantage-0, vantage-1" in out
    text = report_path.read_text()
    assert "Federation overview" in text
    # sketch-mode federation is gone: the flag is a usage error
    code, _out = run_cli(["federate", *FAST, "--sketch"])
    assert code == 2


def test_federate_rejects_bad_endpoints():
    code, out = run_cli(["federate", *FAST, "--connect", "nonsense"])
    assert code == 2
    assert "bad --connect endpoint" in out
    code, out = run_cli(["federate", *FAST, "--listen", "nonsense"])
    assert code == 2
    assert "bad --listen endpoint" in out


def test_federate_rejects_zero_vantages():
    code, out = run_cli(["federate", *FAST, "--vantages", "0"])
    assert code == 2
    assert "--vantages" in out


def test_federate_listen_connect_mutually_exclusive():
    code, _out = run_cli(
        ["federate", *FAST, "--listen", "h:1", "--connect", "h:1"]
    )
    assert code == 2


def test_federate_socket_roles():
    """Aggregator --listen and vantage --connect meet over localhost."""
    import socket

    probe = socket.socket()
    try:
        probe.bind(("127.0.0.1", 0))
    except OSError as exc:  # pragma: no cover - sandboxed CI
        pytest.skip(f"cannot bind a localhost socket: {exc}")
    port = probe.getsockname()[1]
    probe.close()

    agg_out = io.StringIO()
    agg_code = []

    def aggregate():
        agg_code.append(
            main(
                [
                    "federate",
                    *FAST,
                    "--listen",
                    f"127.0.0.1:{port}",
                    "--vantages",
                    "1",
                ],
                stream=agg_out,
            )
        )

    thread = threading.Thread(target=aggregate)
    thread.start()
    code, out = run_cli(
        [
            "federate",
            *FAST,
            "--connect",
            f"127.0.0.1:{port}",
            "--vantage-name",
            "solo",
        ]
    )
    thread.join(timeout=600)
    assert code == 0
    assert "shipped" in out
    assert agg_code == [0]
    text = agg_out.getvalue()
    assert "Federation overview" in text
    assert "vantages                1: solo" in text


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
        "repro_federate_frames_total",
        "repro_federate_bytes_total",
        "repro_federate_dedup_hits_total",
        "repro_federate_merge_seconds",
        "repro_federate_vantage_lag_seconds",
    ):
        assert family in prom, family
    captured = int(re.search(r"packets captured\s+([\d,]+)", out)[1].replace(",", ""))
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
