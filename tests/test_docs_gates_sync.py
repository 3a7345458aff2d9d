"""The command-level memory gates are one table, ``tests/tools/gates.py``.

CI runs its runner as one step, the docs that explain memory point to
it, and no doc states a bound: a gate moves by editing its row alone.
"""

import pathlib
import re

import pytest

from tests.tools import gates

ROOT = pathlib.Path(__file__).resolve().parent.parent
TABLE = "tests/tools/gates.py"
POINTING = (
    ROOT / ".claude" / "skills" / "verify" / "SKILL.md",
    ROOT / "DESIGN.md",
    ROOT / "docs" / "ARCHITECTURE.md",
)
DOCS = sorted({*POINTING, ROOT / "README.md", *(ROOT / "docs").glob("*.md")})
#: "peaks under 40 MiB", "fails it above 40": how a bound reads in prose
BOUND = re.compile(
    r"\b(?:above|under|below|over)\s+\d+(?:\.\d+)?\s*MiB"
    r"|\bfails?\b[^.;]{0,40}?\babove\s+\d+(?:\.\d+)?",
    re.IGNORECASE,
)


def test_ci_runs_the_table_as_one_step():
    ci = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    assert "ru_maxrss" not in ci and "getrusage" not in ci
    assert ci.count(f"python {TABLE}") == 1


@pytest.mark.parametrize("doc", POINTING, ids=lambda path: path.name)
def test_doc_points_to_the_table(doc):
    assert TABLE in doc.read_text()


@pytest.mark.parametrize("doc", DOCS, ids=lambda path: str(path.relative_to(ROOT)))
def test_no_doc_states_a_bound(doc):
    stated = BOUND.findall(doc.read_text())
    assert not stated, f"{doc.name} states a memory bound {stated}; bounds live in {TABLE}"


def test_every_row_runs_what_the_cli_accepts():
    from repro.cli import _build_parser

    parser = _build_parser()
    names = [gate.name for gate in gates.GATES]
    assert len(set(names)) == len(names)
    for gate in gates.GATES:
        assert gate.bound_mib > 0 and gate.why
        if callable(gate.run):
            # a probe says why no command runs it
            assert gate.run.__doc__ and gates.PROBES[gate.run.__name__] is gate.run
        else:
            parser.parse_args(list(gate.run))


def test_the_capture_is_written_before_it_is_read():
    runs = [() if callable(gate.run) else gate.run for gate in gates.GATES]
    writers = [i for i, run in enumerate(runs) if "--out" in run]
    readers = [
        i for i, (gate, run) in enumerate(zip(gates.GATES, runs))
        if gate.run is gates.held_capture or (gates.CAPTURE in run and i not in writers)
    ]
    assert len(writers) == 1 and readers
    assert writers[0] < min(readers)


def test_the_runner_fails_a_breach_and_a_failed_command(capsys):
    table = (
        gates.Gate("breach", ("stats", "--help"), 1, "no interpreter fits in 1 MiB"),
        gates.Gate("fails", ("analyze", "missing.pcap"), 1_000, "a missing capture exits 2"),
    )
    assert gates.run(table) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("breach: peak RSS ") and out[0].endswith(", bound 1 MiB, BREACH")
    assert out[1] == "fails: FAILED (exit 2)"
