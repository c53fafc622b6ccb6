"""Self-tests of the benchmark: ``python -m pytest bench -q``."""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time
from pathlib import Path

import compare
import run

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]
METRIC_NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def _quick_run(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "0.5", "--trace", str(trace), "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stdout + out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def _assert_declared(result: dict, key: str) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[key]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
    for name, metric in result["metrics"].items():
        assert METRIC_NAME.match(name), name
        assert isinstance(metric["value"], float), name


def test_quick_runs_cover_every_workload_with_the_declared_metrics():
    start = time.perf_counter()
    for workload in WORKLOAD_NAMES:
        _assert_declared(_quick_run(workload, 0), "end_to_end")
    assert time.perf_counter() - start < 30
    for workload in WORKLOAD_NAMES:
        _assert_declared(_quick_run(workload, 1), "per_layer")


def _slow_down_encoder(state) -> None:
    """Make the level-0 encoder take twice as long without more work:
    each of its layers spins for as long as the layer itself ran."""
    for layer in state["model"].embedder.encoders[0].layers:
        layer.forward = _twice_as_slow(layer.forward)


def _twice_as_slow(forward):
    def slowed(*args, **kwargs):
        start = time.perf_counter()
        out = forward(*args, **kwargs)
        end = 2 * time.perf_counter() - start
        while time.perf_counter() < end:
            pass
        return out

    return slowed


def test_compare_names_an_injected_layer_slowdown(tmp_path, capsys):
    for side, hook in (("A", None), ("B", _slow_down_encoder)):
        report = run.measure("train-paper", 0, 1.5, trace=True, quick=True,
                             on_setup=hook)
        (tmp_path / f"{side}.jsonl").write_text(json.dumps(report) + "\n")

    compare.main([str(tmp_path / "A.jsonl"), str(tmp_path / "B.jsonl")])
    output = capsys.readouterr().out
    assert "train-paper: largest per-layer move gnn.encoder_ms" in output, output
    assert "(worse)" in output


def test_lint_is_clean():
    out = subprocess.run(
        [sys.executable, "tools/lint.py", "bench"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stdout + out.stderr
