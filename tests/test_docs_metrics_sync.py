"""docs/METRICS.md is a contract, not prose.

Importing every instrumented module registers the full metric catalog
on the process-wide registry; this test parses the reference tables in
``docs/METRICS.md`` and asserts both directions of sync — every live
family is documented and every documented family is live, with
matching types and label names.
"""

import importlib
import os
import pathlib
import re
import subprocess
import sys

DOCS = pathlib.Path(__file__).resolve().parent.parent / "docs" / "METRICS.md"

#: importing these modules registers every metric family there is.
INSTRUMENTED_MODULES = (
    "repro.core.pipeline",
    "repro.stream.analyzer",
    "repro.stream.feeds",
    "repro.stream.sketch.tier",
    "repro.telescope.telescope",
    "repro.telescope.genlane",
    "repro.telescope.backscatter",
    "repro.telescope.scanners",
    "repro.quic.crypto",
    "repro.faults.inject",
)

SECTION = re.compile(r"^## .*\(`(?P<module>repro\.[a-z.]+)`")
ROW = re.compile(
    r"^\|\s*`(?P<name>repro_[a-z0-9_]+)`\s*"
    r"\|\s*(?P<type>counter|gauge|histogram)\s*"
    r"\|\s*(?P<labels>[^|]+?)\s*\|"
)


def documented_metrics(section_modules=None):
    """``{name: (type, labels)}`` of the reference rows; with
    ``section_modules``, also ``{name: module}`` of its section heading."""
    rows = {}
    module = None
    for line in DOCS.read_text().splitlines():
        heading = SECTION.match(line)
        if heading:
            module = heading.group("module")
        match = ROW.match(line)
        if not match:
            continue
        if section_modules is not None:
            section_modules[match.group("name")] = module
        labels = match.group("labels")
        names = tuple(re.findall(r"`([a-z0-9_]+)`", labels))
        assert match.group("name") not in rows, (
            f"{match.group('name')} documented twice"
        )
        rows[match.group("name")] = (match.group("type"), names)
    return rows


def live_metrics():
    for module in INSTRUMENTED_MODULES:
        importlib.import_module(module)
    from repro import obs

    return {
        m.name: (m.type, m.label_names) for m in obs.REGISTRY.families()
    }


def test_docs_and_registry_agree():
    documented = documented_metrics()
    live = live_metrics()

    assert documented, "no metric rows parsed from docs/METRICS.md"

    undocumented = sorted(set(live) - set(documented))
    stale = sorted(set(documented) - set(live))
    assert not undocumented, f"metrics missing from docs/METRICS.md: {undocumented}"
    assert not stale, f"docs/METRICS.md documents unknown metrics: {stale}"

    for name, (doc_type, doc_labels) in documented.items():
        live_type, live_labels = live[name]
        assert doc_type == live_type, (
            f"{name}: documented as {doc_type}, registered as {live_type}"
        )
        assert doc_labels == live_labels, (
            f"{name}: documented labels {doc_labels}, registered {live_labels}"
        )


def test_documented_label_values_exist():
    """The prose under the tables names label values — spot-check the
    load-bearing ones against the code's enums/constants."""
    text = DOCS.read_text()
    from repro.core.classify import PacketClass

    for klass in ("quic-request", "quic-response", "tcp-backscatter"):
        assert klass in {c.value for c in PacketClass}
        assert klass in text
    for cache in ("keystream", "flight", "initial"):
        assert f"`{cache}`" in text


def test_a_serial_report_exports_every_family_outside_the_monitor(tmp_path):
    """A fresh ``repro report --metrics-out`` (one process, no partitioned
    runner loaded) exports every family docs/METRICS.md lists, except the
    monitor's (``repro.stream``), which only ``watch`` and lenient reads
    load; the ``repro_parallel_*`` families included."""
    modules: dict = {}
    documented = documented_metrics(modules)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(DOCS.parents[1] / "src") + os.pathsep + env.get("PYTHONPATH", "")
    out = tmp_path / "serial"
    subprocess.run(
        [sys.executable, "-m", "repro", "report", "--hours", "0.1",
         "--research-sample", "0.0005", "--metrics-out", str(out)],
        env=env, capture_output=True, check=True,
    )
    exported = set(re.findall(r"^# TYPE (repro_[a-z0-9_]+) ", (tmp_path / "serial.prom").read_text(), re.M))
    expected = {name for name in documented if not modules[name].startswith("repro.stream")}
    assert {name for name in expected if name.startswith("repro_parallel_")}
    assert exported == expected
