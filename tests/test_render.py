"""Tests for the plain-text rendering helpers."""

from repro.util.render import cdf_points, format_table, sparkline


def test_format_table_alignment():
    out = format_table(["name", "count"], [["alpha", 10], ["b", 20000]])
    lines = out.splitlines()
    assert lines[0].startswith("name")
    assert "-" in lines[1]
    assert "20,000" in lines[3]


def test_format_table_title_and_floats():
    out = format_table(["x"], [[1.5], [0.001]], title="T")
    assert out.splitlines()[0] == "T"
    assert "1.50" in out
    assert "0.0010" in out


def test_sparkline():
    line = sparkline([0, 1, 2, 3])
    assert len(line) == 4
    assert line[0] == " "
    assert sparkline([]) == ""
    assert sparkline([0, 0]) == "  "


def test_cdf_points():
    pairs = [(float(i), (i + 1) / 10) for i in range(10)]
    out = cdf_points(pairs, fractions=(0.5, 1.0))
    assert "P 50" in out
    assert "9.00" in out
