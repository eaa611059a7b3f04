"""Plain-text table / series rendering for benchmark output.

The benchmark suite prints the same rows and series the paper's tables and
figures report; these helpers keep that output consistent and readable.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence


def render_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    *,
    title: str | None = None,
    float_fmt: str = "{:.3f}",
) -> str:
    """Fixed-width table with auto-sized columns."""
    def fmt(cell: object) -> str:
        if isinstance(cell, float):
            return float_fmt.format(cell)
        return str(cell)

    str_rows = [[fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in str_rows:
        lines.append(" | ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def render_series(
    x_label: str,
    x_values: Sequence[object],
    series: Mapping[str, Sequence[float]],
    *,
    title: str | None = None,
    float_fmt: str = "{:.2f}",
) -> str:
    """A figure as a table: one x column, one column per curve."""
    headers = [x_label, *series.keys()]
    rows = []
    for i, x in enumerate(x_values):
        rows.append([x, *(vals[i] for vals in series.values())])
    return render_table(headers, rows, title=title, float_fmt=float_fmt)

