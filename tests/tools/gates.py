"""The command-level memory gates: one table, one runner.

QUICsand analyses a month of a /9 (≈ 92M packets), so every command
must keep its memory bounded by sources and sessions, never by packets.
Each row of :data:`GATES` runs one thing in a fresh interpreter, reads
that interpreter's peak resident set (``ru_maxrss``) in-process, and
holds it to the row's bound.  A gate moves by editing its row; no other
file states a bound.

Run from anywhere, with nothing to build::

    python tests/tools/gates.py

It prints one line per gate (reading against bound) and its own peak
last, and exits 1 if any gate breaches its bound or any command fails.
The rows run in table order in one scratch directory: ``simulate`` comes
first because later gates read the capture it writes.

The runner imports nothing from ``repro``.  On Linux a child's
``ru_maxrss`` starts at its parent's high-water mark, so a gate started
from a parent that had loaded the package, or run a scenario, would read
the parent's peak and not its own.  The runner's own peak is printed and
must stay below every reading.
"""

import os
import resource
import sys
from pathlib import Path
from typing import Callable, NamedTuple, Union

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
# a child imports this module rather than running it as a script: the
# script's compile would add ≈ 0.3 MiB to every reading
CHILD = "import sys, gates; sys.exit(gates._measure(sys.argv[1:]))"
CAPTURE = "cap6h.pcap"
SIX_HOURS = ("--hours", "6", "--research-sample", "0.015625")


def held_capture() -> str:
    """No command holds a capture as packets: the benchmark's ``watch-*``
    rows feed such a list, so this gate stays until they stream (ROADMAP
    16(b))."""
    from repro.net.pcap import read_pcap

    packets = list(read_pcap(CAPTURE))
    return f"{len(packets):,} packets"


def lane_batches_72h() -> str:
    """No command drains generation alone (``simulate`` adds the writer,
    ``report`` the analysis), and 72 h shows that it stays flat with the
    window."""
    from repro.telescope import Scenario, ScenarioConfig
    from repro.util.timeutil import HOUR

    scenario = Scenario(
        ScenarioConfig(seed=20210401, duration=72 * HOUR, research_sample=1 / 64)
    )
    records = sum(len(batch) for batch in scenario.lane_batches())
    return f"{records:,} records"


class Gate(NamedTuple):
    name: str
    #: a ``repro`` argv, or a probe for what no command runs
    run: Union[tuple, Callable[[], str]]
    bound_mib: float
    #: why the bound holds
    why: str


WATCH_6H = ("watch", *SIX_HOURS, "--pcap", CAPTURE, "--status-every", "0")

GATES = (
    Gate(
        "simulate-6h", ("simulate", *SIX_HOURS, "--out", CAPTURE), 32,
        "the generation merge holds about one batch of records; bounded wire-template memos",
    ),
    Gate(
        "held-capture-6h", held_capture, 112,
        "twelve scalar slots per packet, parsed payloads shared",
    ),
    Gate(
        "watch-pcap-6h-bounded", WATCH_6H, 34,
        "packets stream through in batches",
    ),
    Gate(
        "watch-pcap-6h-exact", (*WATCH_6H, "--exact"), 34,
        "packets stream through in batches",
    ),
    Gate(
        "analyze-6h", ("analyze", *SIX_HOURS, CAPTURE), 36,
        "packets stream through in batches; bounded payload memos",
    ),
    Gate(
        "report-day", ("report", "--hours", "24", "--research-sample", "0.015625"), 38,
        "the generation merge holds about one batch of records; only the modules a "
        "serial run executes; sessions keep no containers their class never fills; "
        "bounded crypto and payload memos",
    ),
    Gate(
        "lane-batches-72h", lane_batches_72h, 33,
        "open sessions, live floods and one 20 s merge window",
    ),
)

PROBES = {gate.run.__name__: gate.run for gate in GATES if callable(gate.run)}


def peak_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def _measure(argv: list) -> int:
    """The child: run one gate in this interpreter, print ``peak-MiB
    detail`` as its last line and return the command's exit code."""
    if argv[0] == "--probe":
        code, detail = 0, PROBES[argv[1]]()
    else:
        from repro.cli import main

        with open(os.devnull, "w") as out:
            code = main(argv, stream=out)
        detail = ""
    print(f"{peak_mib():.1f} {detail}")
    return code


def run(gates=GATES) -> int:
    """Run ``gates`` in order, each in a fresh interpreter; 0 if every
    one exits 0 within its bound, else 1."""
    # imported here, not at the top: every child imports this module
    import subprocess
    import tempfile

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(SRC), str(HERE), env.get("PYTHONPATH")))
    )
    failed = False
    readings = []
    with tempfile.TemporaryDirectory(prefix="repro-gates-") as workdir:
        for gate in gates:
            argv = ["--probe", gate.run.__name__] if callable(gate.run) else list(gate.run)
            child = subprocess.run(
                [sys.executable, "-c", CHILD, *argv],
                cwd=workdir, env=env, stdout=subprocess.PIPE, text=True,
            )
            if child.returncode:
                print(f"{gate.name}: FAILED (exit {child.returncode})", flush=True)
                failed = True
                continue
            reading, _, detail = child.stdout.splitlines()[-1].partition(" ")
            reading = float(reading)
            readings.append(reading)
            verdict = "ok" if reading <= gate.bound_mib else "BREACH"
            failed |= verdict != "ok"
            print(
                f"{gate.name}: peak RSS {reading:.1f} MiB, bound {gate.bound_mib:g} MiB, "
                f"{verdict}{'; ' + detail if detail else ''}",
                flush=True,
            )
    own = peak_mib()
    below = all(own < reading for reading in readings)
    print(f"runner: peak RSS {own:.1f} MiB{'' if below else ', NOT below every reading'}")
    return int(failed or not below)


if __name__ == "__main__":
    sys.exit(run())
