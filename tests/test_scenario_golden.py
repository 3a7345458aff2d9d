"""Golden-report regression tests for every adversarial scenario.

Each scenario registered as adversarial in
:data:`repro.telescope.presets.SCENARIOS` pins its rendered report byte
for byte under ``tests/data/scenario_<name>.txt``.  Any change to the
generators, classification, detection, or rendering shows up as a
readable diff.  After an *intended* change, regenerate with::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_scenario_golden.py

and review the golden diffs like any other code change.

A subprocess pair also pins hash-seed independence: the report must not
depend on ``PYTHONHASHSEED`` (no iteration order of an unordered
container may leak into the output).
"""

import difflib
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import QuicsandPipeline
from repro.core.report import build_report
from repro.telescope import Scenario
from repro.telescope.presets import SCENARIOS, scenario_config

DATA = Path(__file__).parent / "data"

#: the representative scenario for the (slow) subprocess hash-seed
#: check; it exercises VN + Retry wire shapes and the victim tables.
HASHSEED_SCENARIO = "adv-vn-retry"


def render_report(name):
    scenario = Scenario(scenario_config(name))
    pipeline = QuicsandPipeline(
        registry=scenario.internet.registry,
        census=scenario.internet.census,
        greynoise=scenario.internet.greynoise,
    )
    result = pipeline.process(scenario.packets())
    return build_report(result, research_weight=scenario.truth.research_weight)


def golden_path(name):
    return DATA / f"scenario_{name}.txt"


def _assert_matches_golden(name, text):
    golden = golden_path(name).read_text()
    if text != golden:
        diff = "\n".join(
            difflib.unified_diff(
                golden.splitlines(),
                text.splitlines(),
                fromfile="golden",
                tofile="current",
                lineterm="",
            )
        )
        raise AssertionError(
            f"scenario {name} report drifted from its golden snapshot "
            "(REPRO_REGEN_GOLDEN=1 regenerates after an intended change):\n"
            + diff
        )


@pytest.mark.parametrize("name", [n for n, p in SCENARIOS.items() if p.adversarial])
def test_adversarial_report_matches_golden(name):
    text = render_report(name)
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        golden_path(name).write_text(text)
    _assert_matches_golden(name, text)


def test_report_matches_golden_with_template_cache_disabled(monkeypatch):
    """The wire-template caches must not leak into adversarial output:
    the VN/Retry scenario rendered with every cache bypassed still
    matches the same golden snapshot byte for byte."""
    monkeypatch.setenv("REPRO_DISABLE_TEMPLATE_CACHE", "1")
    _assert_matches_golden(HASHSEED_SCENARIO, render_report(HASHSEED_SCENARIO))


def _report_digest_under_hashseed(hash_seed):
    code = (
        "import hashlib, sys;"
        "sys.path.insert(0, 'src');"
        "from tests.test_scenario_golden import render_report, HASHSEED_SCENARIO;"
        "print(hashlib.sha256("
        "render_report(HASHSEED_SCENARIO).encode()).hexdigest())"
    )
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", code],
        cwd=Path(__file__).parent.parent,
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return out.stdout.strip()


def test_report_independent_of_hash_seed():
    """Two interpreters with different hash seeds render the identical
    report — no set/dict iteration order leaks into the output."""
    expected = hashlib.sha256(
        golden_path(HASHSEED_SCENARIO).read_text().encode()
    ).hexdigest()
    digests = {
        seed: _report_digest_under_hashseed(seed) for seed in ("0", "1")
    }
    assert digests == {"0": expected, "1": expected}
