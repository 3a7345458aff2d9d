"""A serial run loads only the code it runs.

``repro.core`` and ``repro.telescope`` import the serial path, and the
CLI imports per command: the partitioned runner (with
``multiprocessing`` and ``concurrent.futures``), the extrapolator, the
scan profiler, the scenario presets and the installed-version lookup
(``importlib.metadata``, with the ``email`` / ``zipfile`` stack) load
only in the runs that use them, and ``repro stats`` loads no scenario,
analysis or capture code at all.  Structural, no timing: a fresh
interpreter imports the packages and reads ``sys.modules``.
"""

import os
import subprocess
import sys
from pathlib import Path

from repro import obs

REPO = Path(__file__).resolve().parents[1]

IMPORTED = ("repro.core", "repro.core.report", "repro.telescope", "repro.cli")
NOT_LOADED = (
    "multiprocessing",
    "concurrent.futures",
    "importlib.metadata",
    "repro.core.parallel",
    "repro.core.extrapolate",
    "repro.core.scanprofile",
    "repro.telescope.presets",
)


def _fresh_interpreter(code: str) -> str:
    """stdout of ``code`` run by a new interpreter on the source tree."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout


def test_importing_the_serial_path_loads_no_on_demand_module():
    code = (
        "import importlib, sys\n"
        f"for name in {IMPORTED!r}:\n"
        "    importlib.import_module(name)\n"
        f"print(' '.join(name for name in {NOT_LOADED!r} if name in sys.modules))\n"
    )
    assert _fresh_interpreter(code).split() == []


#: what rendering a metrics file has no use for
NOT_LOADED_BY_STATS = ("repro.telescope", "repro.core.pipeline", "repro.quic")


def test_stats_loads_no_scenario_or_analysis_code(tmp_path):
    """``repro stats FILE.json`` reads a JSON file: the CLI imports the
    scenario, analysis and capture code in the commands that run it."""
    metrics = tmp_path / "run.json"
    obs.write_metrics(str(metrics))
    code = (
        "import io, sys\n"
        "from repro.cli import main\n"
        f"print(main(['stats', {str(metrics)!r}], stream=io.StringIO()))\n"
        f"print(' '.join(name for name in {NOT_LOADED_BY_STATS!r} if name in sys.modules))\n"
    )
    assert _fresh_interpreter(code).split() == ["0"]
