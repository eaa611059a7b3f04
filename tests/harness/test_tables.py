"""Tests for table/series rendering helpers."""

from repro.harness import render_series, render_table


class TestRenderTable:
    def test_contains_headers_and_cells(self):
        out = render_table(["name", "x"], [["a", 1.5], ["bb", 2.25]])
        assert "name" in out and "bb" in out and "2.250" in out

    def test_title(self):
        out = render_table(["h"], [[1.0]], title="My Table")
        assert out.splitlines()[0] == "My Table"

    def test_column_alignment(self):
        out = render_table(["col"], [["short"], ["a-very-long-cell"]])
        lines = out.splitlines()
        widths = {len(line) for line in lines}
        assert len(widths) == 1  # all lines padded to the same width

    def test_custom_float_format(self):
        out = render_table(["x"], [[1.23456]], float_fmt="{:.1f}")
        assert "1.2" in out and "1.23" not in out


class TestRenderSeries:
    def test_series_columns(self):
        out = render_series(
            "gpus", [40, 80], {"Hare": [1.0, 2.0], "FIFO": [3.0, 4.0]}
        )
        assert "gpus" in out and "Hare" in out and "FIFO" in out
        assert "40" in out and "4.00" in out

