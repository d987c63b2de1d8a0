"""Plain-text table rendering for experiment reports.

The benchmark harness prints the same rows the paper's Table 1 reports;
these helpers keep that output aligned and diff-friendly (EXPERIMENTS.md
embeds it verbatim).
"""

from __future__ import annotations

from typing import Any, Sequence


def format_cell(value: Any) -> str:
    """Format one cell: floats get 3 significant decimals, rest ``str``."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == int(value) and abs(value) < 1e15:
            return str(int(value))
        return "%.3f" % value
    return str(value)


def render_table(headers: Sequence[str],
                 rows: Sequence[Sequence[Any]]) -> str:
    """Render an aligned plain-text table with a header rule."""
    formatted = [[format_cell(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in formatted:
        if len(row) != len(headers):
            raise ValueError("row width %d != header width %d"
                             % (len(row), len(headers)))
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in formatted:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)
