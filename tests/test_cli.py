"""CLI: argument parsing and command execution."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_classify_defaults(self):
        args = build_parser().parse_args(["classify"])
        assert args.method == "HAP"
        assert args.dataset == "MUTAG"

    def test_rejects_ged_dataset_for_classification(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["classify", "--dataset", "AIDS"])

    def test_similarity_dataset_choices(self):
        args = build_parser().parse_args(["similarity", "--dataset", "LINUX"])
        assert args.dataset == "LINUX"


class TestCommands:
    def test_stats_runs(self, capsys):
        assert main(["stats", "--num-graphs", "10"]) == 0
        out = capsys.readouterr().out
        assert "MUTAG" in out and "LINUX" in out

    def test_classify_runs_and_saves(self, capsys, tmp_path):
        target = tmp_path / "weights.npz"
        code = main(
            [
                "classify",
                "--method",
                "SumPool",
                "--dataset",
                "IMDB-B",
                "--num-graphs",
                "30",
                "--epochs",
                "2",
                "--save",
                str(target),
            ]
        )
        assert code == 0
        assert target.exists()
        assert "test accuracy" in capsys.readouterr().out

    def test_match_runs(self, capsys):
        code = main(
            ["match", "--method", "SumPool", "--nodes", "10", "--pairs", "16",
             "--epochs", "1"]
        )
        assert code == 0
        assert "matching" in capsys.readouterr().out

    def test_similarity_runs(self, capsys):
        code = main(
            ["similarity", "--method", "SumPool", "--dataset", "LINUX",
             "--pool-size", "8", "--triplets", "20", "--epochs", "1"]
        )
        assert code == 0
        assert "triplet accuracy" in capsys.readouterr().out

    def test_serve_runs(self, capsys):
        code = main(["serve", "--num-graphs", "8", "--requests", "8", "--clients", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "(0 errors)" in out
        assert "batches " in out and "mean size" in out

    def test_query_runs(self, capsys):
        code = main(
            ["query", "--mode", "classify", "--num-graphs", "8", "--index", "3"]
        )
        assert code == 0
        assert "graph 3: predicted class" in capsys.readouterr().out

    @pytest.mark.checkpoint
    def test_classify_checkpoints_and_resumes(self, capsys, tmp_path):
        ckpt_dir = tmp_path / "ckpt"
        base = [
            "classify", "--method", "SumPool", "--dataset", "IMDB-B",
            "--num-graphs", "24", "--epochs", "2",
            "--checkpoint-dir", str(ckpt_dir),
        ]
        assert main(base + ["--checkpoint-every", "2"]) == 0
        written = list(ckpt_dir.glob("ckpt-*.npz"))
        assert written, "CLI run wrote no checkpoints"
        assert main(base + ["--resume", "auto"]) == 0
        assert "test accuracy" in capsys.readouterr().out

    def test_resume_auto_without_dir_exits(self):
        with pytest.raises(SystemExit, match="requires --checkpoint-dir"):
            main(["classify", "--method", "SumPool", "--dataset", "IMDB-B",
                  "--num-graphs", "12", "--epochs", "1", "--resume", "auto"])

    def test_resume_auto_with_empty_dir_exits(self, tmp_path):
        with pytest.raises(SystemExit, match="no checkpoint found"):
            main(["classify", "--method", "SumPool", "--dataset", "IMDB-B",
                  "--num-graphs", "12", "--epochs", "1",
                  "--checkpoint-dir", str(tmp_path / "empty"), "--resume", "auto"])

    def test_crossval_runs(self, capsys):
        code = main(
            ["crossval", "--method", "SumPool", "--dataset", "IMDB-B",
             "--num-graphs", "24", "--folds", "2", "--epochs", "1"]
        )
        assert code == 0
        assert "folds" in capsys.readouterr().out
