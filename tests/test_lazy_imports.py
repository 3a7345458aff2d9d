"""A serial run loads only the code it runs.

``repro.core`` and ``repro.telescope`` import the serial path, and the
CLI imports per command: the partitioned runner (with
``multiprocessing`` and ``concurrent.futures``), the extrapolator, the
scan profiler, the scenario presets and the installed-version lookup
(``importlib.metadata``, with the ``email`` / ``zipfile`` stack) load
only in the runs that use them.  Structural, no timing: a fresh
interpreter imports the packages and reads ``sys.modules``.
"""

import os
import subprocess
import sys
from pathlib import Path

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


def test_importing_the_serial_path_loads_no_on_demand_module():
    code = (
        "import importlib, sys\n"
        f"for name in {IMPORTED!r}:\n"
        "    importlib.import_module(name)\n"
        f"print(' '.join(name for name in {NOT_LOADED!r} if name in sys.modules))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == []
