"""Golden-file regression test for the rendered report.

The full report for a fixed scenario (seed 11, 2 h, 1/2048 research
sample) is pinned byte for byte.  Any change to classification,
sessionization, detection, correlation, or rendering shows up here as
a readable diff.  After an *intended* change, regenerate with::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_report_golden.py

and review the golden diff like any other code change.
"""

import difflib
import os
from pathlib import Path

from repro.core import QuicsandPipeline
from repro.core.report import build_report
from repro.telescope import Scenario, ScenarioConfig
from repro.util.timeutil import HOUR
from tests.test_template_cache import bypass_template_caches

GOLDEN = Path(__file__).parent / "data" / "report_seed11_2h.txt"


def render_report():
    scenario = Scenario(
        ScenarioConfig(seed=11, duration=2 * HOUR, research_sample=1 / 2048)
    )
    pipeline = QuicsandPipeline(
        registry=scenario.internet.registry,
        census=scenario.internet.census,
        greynoise=scenario.internet.greynoise,
    )
    result = pipeline.process(scenario.packets())
    return build_report(result, research_weight=scenario.truth.research_weight)


def test_report_matches_golden():
    text = render_report()
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        GOLDEN.write_text(text)
    _assert_matches_golden(text)


def test_report_matches_golden_with_template_cache_disabled(monkeypatch):
    """The generation memos must not leak into the output: the same
    scenario rendered with every memo bypassed still matches the same
    golden snapshot byte for byte."""
    bypass_template_caches(monkeypatch)
    _assert_matches_golden(render_report())


def _assert_matches_golden(text):
    golden = GOLDEN.read_text()
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
            "report drifted from the golden snapshot "
            "(REPRO_REGEN_GOLDEN=1 regenerates after an intended change):\n"
            + diff
        )
