"""Shared benchmark configuration.

Every benchmark regenerates one table or figure of the paper at a
CPU-friendly scale.  Set ``REPRO_BENCH_SCALE=full`` for larger datasets
and training budgets (closer to the paper's regime, several times
slower); the default ``quick`` profile finishes each benchmark in
seconds to a few minutes.
"""

from __future__ import annotations

import os

import pytest

SCALE = os.environ.get("REPRO_BENCH_SCALE", "quick")

#: per-profile knobs used across benchmarks
PROFILES = {
    "quick": {
        "num_graphs": 100,
        "epochs": 18,
        "epochs_hard": 45,  # datasets with a long optimisation plateau
        "hidden": 16,
        "match_pairs": 100,
        "match_epochs": 20,
        "sim_pool": 14,
        "sim_triplets": 80,
        "sim_epochs": 8,
        "tsne_iterations": 250,
    },
    "full": {
        "num_graphs": 250,
        "epochs": 40,
        "epochs_hard": 120,
        "hidden": 32,
        "match_pairs": 200,
        "match_epochs": 30,
        "sim_pool": 24,
        "sim_triplets": 200,
        "sim_epochs": 20,
        "tsne_iterations": 400,
    },
}


@pytest.fixture(scope="session")
def profile() -> dict:
    if SCALE not in PROFILES:
        raise KeyError(f"unknown REPRO_BENCH_SCALE={SCALE!r}")
    return PROFILES[SCALE]


def run_once(benchmark, func):
    """Run a whole-experiment callable exactly once under pytest-benchmark."""
    return benchmark.pedantic(func, rounds=1, iterations=1)


RESULTS_DIR = os.path.join(os.path.dirname(__file__), "..", "results")
#: the `bench` tests' rows measure the host that ran them, so they stay
#: out of git (CI's bench job uploads them as an artifact)
BENCH_OUT_DIR = os.path.join(os.path.dirname(__file__), "out")


def _save(directory: str, name: str, rows: dict) -> None:
    from repro.evaluation.reports import save_rows

    os.makedirs(directory, exist_ok=True)
    save_rows(rows, os.path.join(directory, f"{name}.json"), title=name)


def persist_rows(name: str, rows: dict) -> None:
    """Write a benchmark's rows to results/<name>.json for EXPERIMENTS.md."""
    _save(RESULTS_DIR, name, rows)


def persist_bench_rows(name: str, rows: dict) -> None:
    """Write a `bench` test's rows to benchmarks/out/<name>.json."""
    _save(BENCH_OUT_DIR, name, rows)
