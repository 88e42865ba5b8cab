"""Small terminal plotting helpers used by examples and benchmarks."""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..errors import ConfigError

__all__ = ["ascii_series", "ascii_table"]


def ascii_series(
    xs: Sequence[float],
    ys: Sequence[float],
    *,
    width: int = 70,
    height: int = 16,
    title: str = "",
    overlay: Optional[Tuple[Sequence[float], Sequence[float], str]] = None,
) -> str:
    """Scatter ``ys`` over ``xs`` on a character grid, marked ``*``.

    ``overlay`` optionally draws a second series (e.g. the tuner's fitted
    curve over its samples — Figure 5) with its own marker.
    """
    if len(xs) != len(ys) or not xs:
        raise ConfigError("xs and ys must be equal-length, non-empty")
    series = [(list(xs), list(ys), "*")]
    if overlay is not None:
        oxs, oys, omark = overlay
        if len(oxs) != len(oys) or not oxs:
            raise ConfigError("overlay xs and ys must be equal-length, non-empty")
        series.append((list(oxs), list(oys), omark))
    all_x = [x for s in series for x in s[0]]
    all_y = [y for s in series for y in s[1]]
    x_lo, x_hi = min(all_x), max(all_x)
    y_lo, y_hi = min(all_y), max(all_y)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0
    grid = [[" "] * width for _ in range(height)]
    for sx, sy, mark in series:
        for x, y in zip(sx, sy):
            col = min(width - 1, int((x - x_lo) / x_span * (width - 1)))
            row = min(height - 1, int((y - y_lo) / y_span * (height - 1)))
            grid[height - 1 - row][col] = mark
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append(f"{y_hi:10.2f} +" + "-" * width + "+")
    for i, row in enumerate(grid):
        prefix = f"{y_lo:10.2f} |" if i == height - 1 else " " * 11 + "|"
        lines.append(prefix + "".join(row) + "|")
    lines.append(" " * 11 + "+" + "-" * width + "+")
    lines.append(" " * 12 + f"{x_lo:<10.2f}" + " " * max(0, width - 20) + f"{x_hi:>10.2f}")
    return "\n".join(lines)


def ascii_table(headers: Sequence[str], rows: Sequence[Sequence]) -> str:
    """Render a fixed-width table; floats print with three decimals."""
    if not headers:
        raise ConfigError("a table needs headers")
    rendered: List[List[str]] = [list(map(str, headers))]
    for row in rows:
        if len(row) != len(headers):
            raise ConfigError(
                f"row has {len(row)} cells, expected {len(headers)}: {row!r}"
            )
        rendered.append(
            [format(c, ".3f") if isinstance(c, float) else str(c) for c in row]
        )
    widths = [max(len(r[i]) for r in rendered) for i in range(len(headers))]
    out = []
    for i, row in enumerate(rendered):
        out.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
        if i == 0:
            out.append("  ".join("-" * w for w in widths))
    return "\n".join(out)
