"""Plain-text table rendering for the experiment harness.

The benchmark harness prints the same rows/series the paper reports; this
module renders them as aligned ASCII tables so the output is readable in a
terminal and diffable between runs.
"""

from __future__ import annotations

from typing import Iterable, Sequence


class Table:
    """An incrementally-built, column-aligned ASCII table.

    >>> t = Table(["N", "RJ", "LTF"])
    >>> t.add_row([3, 0.11, 0.13])
    >>> print(t.render())  # doctest: +SKIP
    """

    def __init__(self, headers: Sequence[str], title: str | None = None) -> None:
        self.title = title
        self.headers = [str(h) for h in headers]
        self.rows: list[list[str]] = []

    def add_row(self, values: Iterable[object]) -> None:
        """Append one row; floats are rendered with 4 decimal places."""
        row = [self._fmt(v) for v in values]
        if len(row) != len(self.headers):
            raise ValueError(
                f"row has {len(row)} cells but table has {len(self.headers)} columns"
            )
        self.rows.append(row)

    @staticmethod
    def _fmt(value: object) -> str:
        if isinstance(value, float):
            return f"{value:.4f}"
        return str(value)

    def render(self) -> str:
        """Render the table with a header rule and aligned columns."""
        widths = [len(h) for h in self.headers]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines: list[str] = []
        if self.title:
            lines.append(self.title)
        header = "  ".join(h.ljust(w) for h, w in zip(self.headers, widths))
        lines.append(header)
        lines.append("  ".join("-" * w for w in widths))
        for row in self.rows:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.render()

