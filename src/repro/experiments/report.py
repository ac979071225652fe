"""Rendering experiment results as tables / plots / markdown sections."""

from __future__ import annotations

from repro.experiments.runner import SeriesResult
from repro.util.ascii_plot import line_plot
from repro.util.tables import Table


def series_table(result: SeriesResult, x_name: str, title: str | None = None) -> str:
    """Render a series result as an aligned ASCII table."""
    table = Table([x_name] + result.names(), title=title)
    for row in result.as_rows():
        table.add_row(row)
    return table.render()


def series_plot(
    result: SeriesResult,
    title: str,
    include: list[str] | None = None,
    height: int = 12,
) -> str:
    """Render selected series of a result as an ASCII line plot."""
    names = include if include is not None else result.names()
    series = {name: result.series[name] for name in names}
    return line_plot(series, result.xs, title=title, height=height)


def markdown_section(
    heading: str,
    expectation: str,
    result: SeriesResult,
    x_name: str,
    observations: str = "",
) -> str:
    """One markdown section: expectation, data table, observations."""
    lines = [f"### {heading}", "", f"**Paper expectation.** {expectation}", ""]
    lines.append("```")
    lines.append(series_table(result, x_name))
    lines.append("```")
    if observations:
        lines.extend(["", f"**Observed.** {observations}"])
    lines.append("")
    return "\n".join(lines)
