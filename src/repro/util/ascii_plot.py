"""Tiny terminal line plots.

Used by the CLI experiment harness to sketch the shape of each reproduced
figure (who wins, where crossovers fall) without any plotting dependency.
"""

from __future__ import annotations

from typing import Mapping, Sequence

_MARKERS = "ox+*#@%&"

#: Canvas width in characters.
_WIDTH = 64


def line_plot(
    series: Mapping[str, Sequence[float]],
    xs: Sequence[object],
    height: int = 16,
    title: str | None = None,
) -> str:
    """Render one or more y-series over a shared x-axis as ASCII art.

    Parameters
    ----------
    series:
        Mapping of series name to y values (all the same length as ``xs``).
    xs:
        X-axis labels (used for the footer only; spacing is uniform).
    height:
        Canvas height in characters; the width is fixed.
    title:
        Optional caption printed above the plot.
    """
    if not series:
        raise ValueError("need at least one series")
    n_points = len(xs)
    for name, ys in series.items():
        if len(ys) != n_points:
            raise ValueError(f"series {name!r} has {len(ys)} points, expected {n_points}")
    if n_points == 0:
        raise ValueError("need at least one x value")

    all_ys = [y for ys in series.values() for y in ys]
    lo, hi = min(all_ys), max(all_ys)
    if hi == lo:  # flat data: pad the range so everything sits mid-canvas
        hi = lo + 1.0
        lo = lo - 1.0

    grid = [[" "] * _WIDTH for _ in range(height)]

    def x_pos(i: int) -> int:
        if n_points == 1:
            return _WIDTH // 2
        return round(i * (_WIDTH - 1) / (n_points - 1))

    def y_pos(y: float) -> int:
        frac = (y - lo) / (hi - lo)
        return (height - 1) - round(frac * (height - 1))

    for idx, (name, ys) in enumerate(sorted(series.items())):
        marker = _MARKERS[idx % len(_MARKERS)]
        for i, y in enumerate(ys):
            grid[y_pos(y)][x_pos(i)] = marker

    lines: list[str] = []
    if title:
        lines.append(title)
    lines.append(f"{hi:.4f} +" + "-" * _WIDTH)
    for row in grid:
        lines.append("       |" + "".join(row))
    lines.append(f"{lo:.4f} +" + "-" * _WIDTH)
    lines.append(f"       x: {xs[0]} .. {xs[-1]}  ({n_points} points)")
    legend = "  ".join(
        f"{_MARKERS[i % len(_MARKERS)]}={name}" for i, name in enumerate(sorted(series))
    )
    lines.append("       " + legend)
    return "\n".join(lines)
