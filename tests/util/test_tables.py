"""Tests for ASCII table rendering."""

from __future__ import annotations

import pytest

from repro.util.tables import Table


class TestTable:
    def test_renders_headers_and_rows(self):
        table = Table(["N", "rej"])
        table.add_row([3, 0.5])
        text = table.render()
        assert "N" in text and "rej" in text
        assert "0.5000" in text

    def test_title_line(self):
        table = Table(["a"], title="My Title")
        table.add_row([1])
        assert table.render().splitlines()[0] == "My Title"

    def test_column_alignment(self):
        table = Table(["long-header", "x"])
        table.add_row(["v", 12])
        header, rule, row = table.render().splitlines()
        assert len(header) == len(rule)

    def test_row_width_mismatch_rejected(self):
        table = Table(["a", "b"])
        with pytest.raises(ValueError):
            table.add_row([1])

    def test_float_formatting(self):
        table = Table(["x"])
        table.add_row([1 / 3])
        assert "0.3333" in table.render()

    def test_str_is_render(self):
        table = Table(["x"])
        table.add_row([1])
        assert str(table) == table.render()

