"""Plain-text reporting of tables and figure series.

The benchmark harness prints the same rows/series as the paper's figures
and tables; these helpers keep that output consistent and readable.
"""

from __future__ import annotations

from typing import List, Sequence

__all__ = ["format_table", "format_series"]


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence], title: str = ""
) -> str:
    """Fixed-width table; cells are str()-ed, floats get 2 decimals."""
    def fmt(cell) -> str:
        if isinstance(cell, float):
            return f"{cell:.2f}"
        return str(cell)

    text_rows = [[fmt(c) for c in row] for row in rows]
    widths = [
        max(len(str(h)), *(len(r[i]) for r in text_rows)) if text_rows
        else len(str(h))
        for i, h in enumerate(headers)
    ]
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append(
        "  ".join(str(h).ljust(w) for h, w in zip(headers, widths))
    )
    lines.append("  ".join("-" * w for w in widths))
    for row in text_rows:
        lines.append(
            "  ".join(c.rjust(w) for c, w in zip(row, widths))
        )
    return "\n".join(lines)


def format_series(
    name: str, xs: Sequence, ys: Sequence[float], unit: str = ""
) -> str:
    """One figure series as ``name: x=y x=y ...``."""
    points = " ".join(
        f"{x}={y:.3g}{unit}" for x, y in zip(xs, ys)
    )
    return f"{name:>10s}: {points}"

