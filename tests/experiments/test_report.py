"""Tests for report formatting."""

from repro.experiments import format_series, format_table


def test_table_alignment():
    text = format_table(
        ["graph", "value"], [["OR", 1.2345], ["HW", 10.0]], title="T"
    )
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "graph" in lines[1]
    assert "1.23" in text
    assert "10.00" in text


def test_table_empty_rows():
    text = format_table(["a", "b"], [])
    assert "a" in text


def test_series_format():
    line = format_series("KaHIP", [4, 8], [1.5, 2.0], unit="x")
    assert "KaHIP" in line
    assert "4=1.5x" in line
    assert "8=2x" in line


def test_table_mixed_cell_types():
    text = format_table(
        ["name", "count", "mean"], [["hdrf", 12, 0.5], ["dbh", 3, 1.25]]
    )
    assert "hdrf" in text
    assert "12" in text
    assert "1.25" in text

