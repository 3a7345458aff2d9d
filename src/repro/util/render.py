"""Plain-text rendering of tables and charts.

The report (:mod:`repro.core.report`) prints every table and figure of
the paper as terminal output: tables as aligned text, figures as ASCII
line/bar charts or printed CDF points.  Keeping rendering here keeps the
report focused on *what* to compute.
"""

from __future__ import annotations

from typing import Iterable, Sequence


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: str | None = None,
) -> str:
    """Render an aligned monospace table."""
    str_rows = [[_cell(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells)).rstrip()

    out = []
    if title:
        out.append(title)
    out.append(line(list(headers)))
    out.append("  ".join("-" * w for w in widths))
    out.extend(line(row) for row in str_rows)
    return "\n".join(out)


def _cell(value: object) -> str:
    if isinstance(value, float):
        if value and abs(value) < 0.01:
            return f"{value:.4f}"
        return f"{value:,.2f}"
    if isinstance(value, int):
        return f"{value:,}"
    return str(value)


def sparkline(values: Sequence[float]) -> str:
    """Single-line unicode sparkline, used for hourly rate series."""
    glyphs = " .:-=+*#%@"
    if not values:
        return ""
    peak = max(values)
    if peak <= 0:
        return " " * len(values)
    return "".join(glyphs[min(int(v / peak * (len(glyphs) - 1)), len(glyphs) - 1)] for v in values)


def cdf_points(
    pairs: Sequence[tuple[float, float]],
    fractions: Sequence[float] = (0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 1.0),
) -> str:
    """Print selected points of a CDF given (value, fraction) step pairs."""
    out = []
    for target in fractions:
        chosen = next((v for v, f in pairs if f >= target), pairs[-1][0])
        out.append(f"  P{int(target * 100):3d} <= {chosen:,.2f}")
    return "\n".join(out)
