"""Parallel cross-validation speedup vs the serial reference.

Runs one small cross-validation serially and through the
:mod:`repro.parallel` worker pool at 2 and 4 workers, asserting the
engine's contract (identical accuracies) and recording wall-clock
speedup, parallel efficiency and mean accuracy per worker count.

Speedup depends on core count: spawned workers pay a full interpreter
start-up, so on a small host the parallel run is *slower* than serial
(docs/parallelism.md).  The 2x speedup floor at 4 workers is therefore
judged only on hosts with at least 4 cores; on smaller hosts the test
records its rows and then skips, naming the speedup it read.
``cpu_count`` travels with the persisted rows so readers can interpret
the timings.
"""

from __future__ import annotations

import os
import time

import pytest

from benchmarks.conftest import persist_bench_rows, run_once
from repro.data.cache import clear_memory_cache
from repro.evaluation.crossval import cross_validate_classification

pytestmark = pytest.mark.bench

METHOD, DATASET = "SumPool", "IMDB-B"
#: big enough that fold training dominates process start-up, small
#: enough for a CI stage
CV_CONFIG = {"folds": 4, "num_graphs": 60, "epochs": 8, "hidden": 16, "seed": 0}
WORKERS = (1, 2, 4)
SPEEDUP_FLOOR, FLOOR_CORES = 2.0, 4


def test_parallel_crossval_speedup(benchmark, tmp_path):
    cache_dir = tmp_path / "cache"

    def experiment():
        clear_memory_cache()
        rows: dict[str, dict] = {}
        reference = None
        for n_workers in WORKERS:
            start = time.perf_counter()
            result = cross_validate_classification(
                METHOD, DATASET, n_workers=n_workers, cache_dir=cache_dir,
                **CV_CONFIG,
            )
            wall_s = time.perf_counter() - start
            if reference is None:
                reference = result.fold_accuracies
                serial_s = wall_s
            # the engine's contract: scheduling never changes results
            assert result.fold_accuracies == reference, n_workers
            run = result.pool_run
            rows[f"workers_{n_workers}"] = {
                "wall_s": round(wall_s, 4),
                "busy_s": round(run.busy_time_s, 4),
                "efficiency": round(run.efficiency, 4),
                "speedup_vs_serial": round(serial_s / wall_s, 4),
                "mean_accuracy": round(result.mean, 4),
            }
        rows["environment"] = {
            "cpu_count": os.cpu_count(),
            "method": METHOD,
            "dataset": DATASET,
            **CV_CONFIG,
        }
        return rows

    rows = run_once(benchmark, experiment)
    persist_bench_rows("parallel_speedup", rows)
    for name, row in rows.items():
        print(name, row)

    speedup = rows[f"workers_{WORKERS[-1]}"]["speedup_vs_serial"]
    cores = os.cpu_count() or 1
    if cores < FLOOR_CORES:
        pytest.skip(
            f"the {SPEEDUP_FLOOR}x speedup floor needs >= {FLOOR_CORES} "
            f"cores; this host has {cores} and read {speedup:.2f}x at "
            f"{WORKERS[-1]} workers"
        )
    assert speedup >= SPEEDUP_FLOOR, (
        f"{WORKERS[-1]} workers ran {speedup:.2f}x faster than serial on "
        f"{cores} cores, below the {SPEEDUP_FLOOR}x floor"
    )
