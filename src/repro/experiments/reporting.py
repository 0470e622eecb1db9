"""Plain-text reporting of experiment results (ASCII tables, series, CSV)."""

from __future__ import annotations

import io
from typing import Dict, Optional, Sequence


def _format_value(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1e5 or abs(value) < 1e-3:
            return f"{value:.3g}"
        return f"{value:.3f}".rstrip("0").rstrip(".")
    return str(value)


def format_table(rows: Sequence[Dict[str, object]],
                 columns: Optional[Sequence[str]] = None,
                 title: Optional[str] = None) -> str:
    """Render rows as a fixed-width ASCII table."""
    if not rows:
        return f"{title or 'table'}: (no rows)"
    if columns is None:
        columns = list(rows[0].keys())
    cells = [[_format_value(row.get(c, "")) for c in columns] for row in rows]
    widths = [max(len(str(c)), *(len(r[i]) for r in cells)) for i, c in enumerate(columns)]
    out = io.StringIO()
    if title:
        out.write(f"# {title}\n")
    header = " | ".join(str(c).ljust(w) for c, w in zip(columns, widths))
    out.write(header + "\n")
    out.write("-+-".join("-" * w for w in widths) + "\n")
    for row in cells:
        out.write(" | ".join(cell.ljust(w) for cell, w in zip(row, widths)) + "\n")
    return out.getvalue()


def format_series(xs: Sequence[object], ys: Sequence[float], x_label: str, y_label: str,
                  title: Optional[str] = None, width: int = 40) -> str:
    """Render an (x, y) series as an ASCII bar chart (the library's "figures")."""
    out = io.StringIO()
    if title:
        out.write(f"# {title}\n")
    finite = [y for y in ys if y == y and y not in (float("inf"), float("-inf"))]
    top = max(finite) if finite else 1.0
    out.write(f"{x_label:>16} | {y_label}\n")
    for x, y in zip(xs, ys):
        bar = "#" * max(1, int(round(width * (y / top)))) if top > 0 else ""
        out.write(f"{_format_value(x):>16} | {bar} {_format_value(y)}\n")
    return out.getvalue()


def results_to_csv(rows: Sequence[Dict[str, object]],
                   columns: Optional[Sequence[str]] = None) -> str:
    """Serialize rows to a CSV string (no external dependencies)."""
    if not rows:
        return ""
    if columns is None:
        columns = list(rows[0].keys())
    lines = [",".join(str(c) for c in columns)]
    for row in rows:
        lines.append(",".join(_format_value(row.get(c, "")) for c in columns))
    return "\n".join(lines) + "\n"
