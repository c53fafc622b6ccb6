"""Smoke test for the profiling CLI (``pytest -m profile``).

Runs :mod:`tools.profile_run` on a tiny synthetic dataset and validates
the emitted ``repro.profile/v1`` report — including the PR's acceptance
bar that the per-module breakdown accounts for >= 95% of step time.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import profile_run  # noqa: E402

pytestmark = pytest.mark.profile

TINY = dict(num_graphs=6, epochs=1, hidden=4, batch_size=3, cluster_sizes=(3, 1))


class TestProfileTraining:
    def test_report_validates_and_covers_steps(self):
        report = profile_run.profile_training(**TINY)
        profile_run.validate_profile(report)
        assert report["coverage"]["fraction"] >= 0.95
        assert report["coverage"]["calls"] == 2  # 6 graphs / batch_size 3
        paths = {row["path"] for row in report["modules"]}
        for expected in (
            "train/epoch/step/forward",
            "train/epoch/step/backward",
            "train/epoch/step/optimizer",
        ):
            assert expected in paths
        op_names = {row["name"] for row in report["ops"]}
        assert {"matmul", "add"} <= op_names
        assert all(row["calls"] > 0 for row in report["ops"])

    def test_loop_path_profiles_too(self):
        report = profile_run.profile_training(batched=False, **TINY)
        profile_run.validate_profile(report)
        assert report["config"]["batched"] is False
        assert report["coverage"]["fraction"] >= 0.95

    def test_validate_rejects_malformed_reports(self):
        with pytest.raises(ValueError, match="schema"):
            profile_run.validate_profile({"schema": "other/v1"})
        report = profile_run.profile_training(**TINY)
        del report["coverage"]
        with pytest.raises(ValueError, match="coverage"):
            profile_run.validate_profile(report)

    def test_format_report_renders_tables(self):
        report = profile_run.profile_training(**TINY)
        text = profile_run.format_report(report)
        assert "per-module (span-tree paths)" in text
        assert "per-op (autograd engine)" in text
        assert "step coverage" in text


class TestMain:
    def test_writes_valid_json(self, tmp_path, capsys):
        out = tmp_path / "profile_tiny.json"
        code = profile_run.main(
            [
                "--num-graphs", "6", "--epochs", "1", "--hidden", "4",
                "--batch-size", "3", "--out", str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        profile_run.validate_profile(report)
        assert "per-op (autograd engine)" in capsys.readouterr().out

    def test_baseline_report_on_disk_is_valid(self):
        baseline = (
            Path(__file__).resolve().parent.parent / "results" / "profile_baseline.json"
        )
        report = json.loads(baseline.read_text())
        profile_run.validate_profile(report)
        assert report["coverage"]["fraction"] >= 0.95
