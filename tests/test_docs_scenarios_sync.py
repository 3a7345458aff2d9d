"""docs/SCENARIOS.md is a contract, not prose.

The two scenario tables must list exactly the presets registered in
:data:`repro.telescope.presets.SCENARIOS` — IBR scenarios under one
heading, adversarial under the other, with the vectors and expected
columns byte-equal to the registry.  Both directions fail: registering
a scenario without documenting it, or documenting one that does not
exist.
"""

import pathlib
import re

from repro.telescope.presets import SCENARIOS

DOCS = pathlib.Path(__file__).resolve().parent.parent / "docs" / "SCENARIOS.md"

ROW = re.compile(
    r"^\|\s*`(?P<name>[a-z0-9-]+)`\s*\|\s*(?P<vectors>[^|]+?)\s*\|"
    r"\s*(?P<expected>[^|]+?)\s*\|$"
)


def table_rows(heading: str) -> dict:
    """Parse the three-column table under ``heading`` into
    {name: (vectors, expected)}."""
    rows = {}
    in_section = False
    for line in DOCS.read_text().splitlines():
        if line.startswith("#"):
            in_section = heading in line
            continue
        if not in_section:
            continue
        match = ROW.match(line)
        if not match:
            continue
        name = match.group("name")
        assert name not in rows, f"{name} documented twice under {heading!r}"
        rows[name] = (match.group("vectors"), match.group("expected"))
    return rows


def _vectors_cell(preset) -> str:
    return ", ".join(f"`{vector}`" for vector in preset.vectors)


def _check_section(heading: str, expected_names: tuple):
    documented = table_rows(heading)
    assert documented, f"no scenario rows parsed under {heading!r}"
    missing = sorted(set(expected_names) - set(documented))
    stale = sorted(set(documented) - set(expected_names))
    assert not missing, f"scenarios missing from docs: {missing}"
    assert not stale, f"docs list unknown scenarios: {stale}"
    for name in expected_names:
        preset = SCENARIOS[name]
        vectors, expected = documented[name]
        assert vectors == _vectors_cell(preset), (
            f"{name}: vectors cell {vectors!r} != registry "
            f"{_vectors_cell(preset)!r}"
        )
        assert expected == preset.expected, (
            f"{name}: expected cell {expected!r} != registry "
            f"{preset.expected!r}"
        )


def test_ibr_table_matches_registry():
    ibr = tuple(n for n, p in SCENARIOS.items() if not p.adversarial)
    _check_section("IBR scenario matrix", ibr)


def test_adversarial_table_matches_registry():
    adversarial = tuple(n for n, p in SCENARIOS.items() if p.adversarial)
    _check_section("Adversarial scenario matrix", adversarial)


def test_cross_references_hold():
    """The files SCENARIOS.md points readers at must exist."""
    text = DOCS.read_text()
    root = DOCS.parent.parent
    for path in (
        "tests/test_scenario_matrix.py",
        "tests/test_scenario_golden.py",
        "tests/test_adversarial_detectors.py",
        "tests/test_docs_scenarios_sync.py",
        "src/repro/telescope/adversarial.py",
        "src/repro/telescope/presets.py",
    ):
        name = pathlib.Path(path).name
        assert name in text, f"{name} no longer mentioned in SCENARIOS.md"
        assert (root / path).exists(), f"{path} referenced but missing"
