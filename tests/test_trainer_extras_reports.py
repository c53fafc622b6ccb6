"""Report helpers: result rows saved, loaded and rendered as markdown."""

from repro.evaluation.reports import load_rows, save_rows, to_markdown


class TestReports:
    def test_save_load_roundtrip(self, tmp_path):
        rows = {"HAP": {"MUTAG": 0.95}}
        path = tmp_path / "rows.json"
        save_rows(rows, path, title="Table 3")
        title, loaded = load_rows(path)
        assert title == "Table 3"
        assert loaded == rows

    def test_markdown_rendering(self):
        rows = {"HAP": {"A": 0.9, "B": 0.5}, "Sum": {"A": 0.8}}
        text = to_markdown(rows, ["A", "B"])
        assert "| Method | A | B |" in text
        assert "**90.00%**" in text  # best per column bolded
        assert "| Sum | 80.00% | - |" in text

    def test_markdown_raw_values(self):
        rows = {"x": {"c": 1.2345}}
        text = to_markdown(rows, ["c"], percent=False, bold_best=False)
        assert "1.2345" in text
