"""Benchmark-regression gate (the ``bench-compare`` stage of tools/ci.sh).

Times the hot paths the parallel-execution PR cares about and fails
when one regresses against the committed baseline:

- ``crossval_serial_s`` — one serial cross-validation (the reference
  execution the parallel engine is measured against);
- ``fold_task_mean_s`` — mean per-fold training time (the unit of work
  the pool schedules);
- ``dataset_build_s`` / ``dataset_cache_load_s`` — a synthetic-dataset
  build vs re-loading it from the ``repro.data.cache`` archive (the
  cache must stay much cheaper than the builder);
- ``crossval_parallel_s`` (multi-core hosts only) — the same
  cross-validation fanned out over worker processes, recorded together
  with ``speedup_vs_serial``;
- ``step_s`` — one HAP training step (forward + backward) on a padded
  dense batch through the fused MOA + coarsening hot path with the
  gradient buffer pool active, exactly as the trainer runs it
  (docs/performance.md); the floor that locks in kernel-fusion wins.
- ``sparse_step_s`` — one HAP training step (forward + backward) on a
  2000-node random sparse graph through the CSR backend
  (docs/sparse.md); guards the gather/scatter kernels against
  accidental densification or quadratic regressions.
- ``serve_p50_s`` / ``serve_p99_s`` — closed-loop request latency of
  the micro-batched inference service (docs/serving.md) under
  concurrent clients, plus a ``serving`` report section with serial
  vs micro-batched throughput and the embed-cache hit rate.  The gate
  *requires* micro-batched throughput strictly above the serial
  one-request-at-a-time baseline, and fails if throughput drops more
  than ``--threshold`` below the committed baseline.
- ``stream_step_s`` — mean time to materialise one shuffled training
  batch through a :class:`repro.data.streaming.StreamingDataset`
  (docs/streaming.md): shard decode + feature attach amortised over
  the planned-read window.
- the **molecular regression floor** — a seeded ESOL-like regression
  run (``repro.evaluation.run_regression``, docs/molecular.md) whose
  held-out RMSE must beat the train-mean predictor's RMSE outright,
  and must not drift above the committed baseline RMSE by more than
  ``--threshold``.  A model that silently stops learning from bond
  features stays numerically "correct" on every equivalence suite;
  only a predictive-quality floor catches it.
- the **streaming memory gate** — subprocess RSS probes (a
  ``streaming`` report section): one epoch over a 50k-graph sharded
  corpus must peak *below* the in-memory loader's RSS at 10k graphs,
  and its RSS growth over an import-only interpreter must stay under
  a fixed fraction of the in-memory loader's growth.  This gate is
  absolute (no baseline needed) and is enforced even under
  ``--update-baseline`` — a baseline that violates the out-of-core
  contract must never be committed.

The report is written to ``BENCH_parallel.json`` (schema
``repro.bench/v1``: commit, cpu count, timings, speedup) and compared
against ``results/bench_baseline.json``: any shared timing more than
``--threshold`` (default 25%) slower fails the gate.  Speedup is
*enforced* (``>= --require-speedup``, default 2x) only on hosts with
at least 4 cores — on smaller machines the report carries an explicit
``parallel.note`` ("skipped: N core(s) < 4 ...") instead of bare
nulls, and a speedup recorded by a ≥4-core host *survives* in the
baseline (the ratchet never overwrites it with nulls) so enforcement
re-arms the moment a multi-core host runs the gate.  Passing
``--require-speedup`` *explicitly* on a <4-core host is an error
unless the baseline records a ≥4-core speedup: the flag demands an
enforcement this host cannot perform, and silently skipping it would
report a green gate for a check that never ran.

``--update-baseline`` is a **ratchet**: each timing floor only ever
*improves* (min-merge of old and new; throughput floors max-merge).  A
regression can therefore never be laundered into the baseline by
re-running the update — after a genuine trade-off, rebase explicitly
with ``--reset-baseline``, which rewrites the file wholesale.

    PYTHONPATH=src python tools/bench_gate.py
    PYTHONPATH=src python tools/bench_gate.py --update-baseline  # ratchet
    PYTHONPATH=src python tools/bench_gate.py --reset-baseline   # rebase

The same measurement is exposed to pytest-benchmark through
``benchmarks/test_parallel_speedup.py`` (``pytest -m bench``).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
BENCH_SCHEMA = "repro.bench/v1"
DEFAULT_OUT = REPO / "BENCH_parallel.json"
DEFAULT_BASELINE = REPO / "results" / "bench_baseline.json"

#: measurement scale: big enough that fold training dominates process
#: startup, small enough for a CI stage
BENCH_CONFIG = {
    "method": "SumPool",
    "dataset": "IMDB-B",
    "folds": 4,
    "num_graphs": 60,
    "epochs": 8,
    "hidden": 16,
    "seed": 0,
}
PARALLEL_WORKERS = 4

#: serving load: enough concurrent clients that coalesced batches are
#: large enough for the padded forward to dominate queueing overhead
#: (COLLAB graphs are the biggest the generators produce), yet small
#: enough for a CI stage.  HAP is the served model because its padded
#: batch path is where micro-batching pays.
SERVE_CONFIG = {
    "method": "HAP",
    "dataset": "COLLAB",
    "num_graphs": 24,
    "hidden": 16,
    "seed": 0,
    "clients": 8,
    "requests_per_client": 20,
    "max_batch_size": 16,
    "max_wait_s": 0.002,
    "embed_pool": 8,
}

#: molecular regression floor: the smallest seeded ESOL-like run whose
#: scaffold-split test RMSE beats the train-mean predictor with a wide
#: margin (docs/molecular.md) — small enough for a CI stage, large
#: enough that a model that stopped learning cannot pass on noise
MOLECULAR_CONFIG = {
    "method": "HAP",
    "dataset": "ESOL",
    "num_graphs": 150,
    "epochs": 30,
    "hidden": 16,
    "lr": 0.01,
    "seed": 0,
}

#: streaming memory gate: the streamed corpus is 5x the in-memory one,
#: yet one full shuffled epoch must peak below the in-memory loader's
#: RSS — and its growth over a bare interpreter must stay under
#: ``rss_fraction`` of the in-memory loader's growth.  MUTAG keeps the
#: 50k-graph generation inside a CI budget; ``chunked`` shard writing
#: bounds the writer at one shard of graphs (docs/streaming.md).
STREAM_CONFIG = {
    "dataset": "MUTAG",
    "stream_graphs": 50_000,
    "inmem_graphs": 10_000,
    "shard_size": 500,
    "max_cached_shards": 2,
    "seed": 0,
    "rss_fraction": 0.5,
}

#: each probe runs in a fresh interpreter so its peak RSS is
#: attributable to exactly one loading strategy.  /proc VmHWM is the
#: primary source: ``ru_maxrss`` survives fork+exec on Linux, so a
#: child spawned from a fat parent would inherit the *parent's*
#: high-water mark and drown the measurement; VmHWM is reset on exec.
_PROBE_PRELUDE = """\
import resource
import sys

def report_peak_rss():
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    print(int(line.split()[1]))
                    return
    except OSError:
        pass  # no procfs (macOS): fall back to getrusage
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # ru_maxrss is bytes there, KB on Linux
        rss_kb //= 1024
    print(rss_kb)
"""

_BASELINE_PROBE = _PROBE_PRELUDE + """
import numpy  # noqa: F401
import repro.data.streaming  # noqa: F401
report_peak_rss()
"""

_INMEM_PROBE = _PROBE_PRELUDE + """
from repro.data.cache import load_dataset_cached

name, n, seed, cache_dir = (
    sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), sys.argv[4]
)
graphs, dim, _ = load_dataset_cached(name, n, seed, cache_dir=cache_dir)
nodes = sum(g.num_nodes for g in graphs)
assert len(graphs) == n and nodes > 0
report_peak_rss()
"""

_STREAM_PROBE = _PROBE_PRELUDE + """
from repro.data.sharding import shard_dataset
from repro.data.streaming import StreamingDataset

name, n, seed = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
shard_dir, shard_size, window = (
    sys.argv[4], int(sys.argv[5]), int(sys.argv[6])
)
shard_dataset(name, n, seed, shard_dir, shard_size, chunked=True)
nodes = count = 0
with StreamingDataset(shard_dir, max_cached_shards=window) as stream:
    for graph in stream.iter_shuffled(seed):
        nodes += graph.num_nodes
        count += 1
assert count == n and nodes > 0
report_peak_rss()
"""


def _git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO, capture_output=True, text=True, timeout=10,
        )
        return out.stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def measure(config: dict | None = None, parallel_workers: int | None = None) -> dict:
    """Time the hot paths; returns the ``repro.bench/v1`` report."""
    from repro.data import DatasetCache, clear_memory_cache
    from repro.evaluation import cross_validate_classification

    config = dict(BENCH_CONFIG if config is None else config)
    cpu_count = os.cpu_count() or 1
    if parallel_workers is None:
        parallel_workers = min(PARALLEL_WORKERS, cpu_count)
    method = config.pop("method")
    dataset = config.pop("dataset")

    timings: dict[str, float | None] = {}
    with tempfile.TemporaryDirectory() as tmp:
        cache = DatasetCache(tmp)
        clear_memory_cache()
        start = time.perf_counter()
        cache.get_or_build(dataset, config["num_graphs"], config["seed"])
        timings["dataset_build_s"] = time.perf_counter() - start
        clear_memory_cache()
        start = time.perf_counter()
        cache.get_or_build(dataset, config["num_graphs"], config["seed"])
        timings["dataset_cache_load_s"] = time.perf_counter() - start

    serial = cross_validate_classification(method, dataset, **config)
    serial_run = serial.pool_run
    timings["crossval_serial_s"] = serial_run.wall_time_s
    timings["fold_task_mean_s"] = serial_run.busy_time_s / max(
        1, len(serial_run.task_stats)
    )

    timings["step_s"] = _dense_step_time()
    timings["sparse_step_s"] = _sparse_step_time()
    timings["stream_step_s"] = _stream_step_time()

    serving = measure_serving()
    timings["serve_p50_s"] = serving["batched"]["p50_s"]
    timings["serve_p99_s"] = serving["batched"]["p99_s"]

    streaming = measure_streaming_memory()
    molecular = measure_molecular()

    speedup = None
    if parallel_workers > 1:
        clear_memory_cache()
        parallel = cross_validate_classification(
            method, dataset, n_workers=parallel_workers, **config
        )
        if parallel.fold_accuracies != serial.fold_accuracies:
            raise RuntimeError(
                "parallel cross-validation deviated from serial: "
                f"{parallel.fold_accuracies} != {serial.fold_accuracies}"
            )
        timings["crossval_parallel_s"] = parallel.pool_run.wall_time_s
        speedup = timings["crossval_serial_s"] / timings["crossval_parallel_s"]
        parallel_info = {
            "status": "measured",
            "workers": parallel_workers,
            "cpu_count": cpu_count,
            "speedup_vs_serial": speedup,
        }
        if cpu_count < 4:
            parallel_info["note"] = (
                f"recorded only: {cpu_count} core(s) < 4 required for "
                "speedup enforcement"
            )
    else:
        timings["crossval_parallel_s"] = None
        parallel_info = {
            "status": "skipped",
            "workers": parallel_workers,
            "cpu_count": cpu_count,
            "note": (
                f"skipped: {cpu_count} core(s) < 4 — parallel speedup "
                "needs a multi-core host (recorded ≥4-core baselines "
                "survive single-core --update-baseline runs)"
            ),
        }

    return {
        "schema": BENCH_SCHEMA,
        "commit": _git_commit(),
        "time": time.time(),
        "cpu_count": cpu_count,
        "parallel_workers": parallel_workers,
        "config": {"method": method, "dataset": dataset, **config},
        "timings": timings,
        "speedup_vs_serial": speedup,
        "parallel": parallel_info,
        "serving": serving,
        "streaming": streaming,
        "molecular": molecular,
    }


def measure_serving(config: dict | None = None) -> dict:
    """Serial vs micro-batched closed-loop serving (docs/serving.md).

    Both sides run the same closed-loop classify workload through
    :class:`repro.serve.InferenceService`; the only difference is
    ``max_batch_size`` (1 vs many), so the throughput ratio isolates
    what request coalescing buys.  A third run drives a repeated embed
    workload to measure the steady-state cache hit rate.
    """
    import numpy as np

    from repro.evaluation.harness import prepare_dataset
    from repro.models.zoo import make_classifier
    from repro.serve import InferenceService, run_closed_loop

    config = dict(SERVE_CONFIG if config is None else config)
    graphs, dim, num_classes = prepare_dataset(
        config["dataset"], config["num_graphs"], np.random.default_rng(config["seed"])
    )
    model = make_classifier(
        config["method"], dim, num_classes,
        np.random.default_rng(config["seed"]), hidden=config["hidden"],
    )
    model.eval()
    model.predict(graphs)  # warm-up: CSR caches, first-touch allocations
    load = {
        "kind": "classify",
        "clients": config["clients"],
        "requests_per_client": config["requests_per_client"],
    }
    with InferenceService(model, max_batch_size=1, max_wait_s=0.0) as service:
        serial = run_closed_loop(service, graphs, **load)
    with InferenceService(
        model,
        max_batch_size=config["max_batch_size"],
        max_wait_s=config["max_wait_s"],
    ) as service:
        batched = run_closed_loop(service, graphs, **load)
    with InferenceService(
        model,
        max_batch_size=config["max_batch_size"],
        max_wait_s=config["max_wait_s"],
    ) as service:
        embed = run_closed_loop(
            service, graphs[: config["embed_pool"]], kind="embed",
            clients=config["clients"],
            requests_per_client=config["requests_per_client"],
        )
    return {
        "config": config,
        "serial": serial.to_dict(),
        "batched": batched.to_dict(),
        "embed": embed.to_dict(),
        "serial_throughput_rps": serial.throughput_rps,
        "throughput_rps": batched.throughput_rps,
        "batching_speedup": batched.throughput_rps / serial.throughput_rps,
        "cache_hit_rate": embed.cache_hit_rate,
    }


def measure_streaming_memory(config: dict | None = None) -> dict:
    """Peak-RSS comparison of streamed vs in-memory loading.

    Three subprocess probes, each printing its own
    ``getrusage().ru_maxrss``: an import-only interpreter (the shared
    baseline every Python process pays), the in-memory loader at
    ``inmem_graphs``, and a full shuffled epoch over a sharded corpus
    of ``stream_graphs`` — generation *and* consumption, since bounded
    writer memory (chunked per-shard generation) is part of the
    out-of-core contract.  Returns absolute RSS plus the growth deltas
    the gate judges.
    """
    config = dict(STREAM_CONFIG if config is None else config)
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))

    def probe(script: str, *argv) -> float:
        result = subprocess.run(
            [sys.executable, "-c", script, *map(str, argv)],
            capture_output=True, text=True, env=env, cwd=REPO, timeout=900,
        )
        if result.returncode != 0:
            raise RuntimeError(f"memory probe failed:\n{result.stderr}")
        return int(result.stdout.strip().splitlines()[-1]) / 1024.0  # KB -> MB

    with tempfile.TemporaryDirectory() as tmp:
        baseline_mb = probe(_BASELINE_PROBE)
        inmem_mb = probe(
            _INMEM_PROBE, config["dataset"], config["inmem_graphs"],
            config["seed"], os.path.join(tmp, "cache"),
        )
        stream_mb = probe(
            _STREAM_PROBE, config["dataset"], config["stream_graphs"],
            config["seed"], os.path.join(tmp, "shards"),
            config["shard_size"], config["max_cached_shards"],
        )
    inmem_delta = max(inmem_mb - baseline_mb, 0.0)
    stream_delta = max(stream_mb - baseline_mb, 0.0)
    return {
        "config": config,
        "baseline_rss_mb": round(baseline_mb, 1),
        "inmem_rss_mb": round(inmem_mb, 1),
        "stream_rss_mb": round(stream_mb, 1),
        "inmem_delta_mb": round(inmem_delta, 1),
        "stream_delta_mb": round(stream_delta, 1),
        "delta_ratio": (
            round(stream_delta / inmem_delta, 3) if inmem_delta > 0 else None
        ),
    }


def measure_molecular(config: dict | None = None) -> dict:
    """Seeded molecular regression quality floor (docs/molecular.md).

    Trains the edge-conditioned regressor on the ESOL-like workload and
    records its scaffold-split test RMSE/MAE next to the train-mean
    predictor's RMSE — the dumbest possible baseline, which any model
    that actually learned must beat.
    """
    from repro.evaluation import run_regression

    config = dict(MOLECULAR_CONFIG if config is None else config)
    result = run_regression(**config)
    return {
        "config": config,
        "rmse": round(result.rmse, 4),
        "mae": round(result.mae, 4),
        "mean_predictor_rmse": round(result.baseline_rmse, 4),
    }


def molecular_failures(
    molecular: dict, baseline: dict | None, threshold: float
) -> list[str]:
    """Violations of the molecular regression floor.

    Beating the mean predictor is absolute (no baseline needed); the
    committed baseline additionally pins a drift floor — RMSE more than
    ``threshold`` above the recorded value fails even while still under
    the mean predictor.
    """
    failures = []
    if molecular["rmse"] >= molecular["mean_predictor_rmse"]:
        failures.append(
            f"molecular regression: test RMSE {molecular['rmse']:.4f} does "
            f"not beat the train-mean predictor's "
            f"{molecular['mean_predictor_rmse']:.4f} — the model learned "
            "nothing from the molecular features (docs/molecular.md)"
        )
    recorded = (baseline or {}).get("molecular", {}).get("rmse")
    if isinstance(recorded, (int, float)):
        if molecular["rmse"] > recorded * (1.0 + threshold):
            failures.append(
                f"molecular regression: test RMSE {molecular['rmse']:.4f} vs "
                f"baseline {recorded:.4f} "
                f"(+{(molecular['rmse'] / recorded - 1.0):.0%}, threshold "
                f"+{threshold:.0%})"
            )
    return failures


def speedup_enforceable(cpu_count: int, baseline: dict | None) -> bool:
    """Whether a ``--require-speedup`` floor can actually be judged.

    True on a ≥4-core host (this run measures the speedup itself), or
    when the committed baseline carries a speedup recorded by a ≥4-core
    host (the ratchet preserves those, so the floor stays armed).
    """
    if cpu_count >= 4:
        return True
    baseline = baseline or {}
    parallel = baseline.get("parallel") or {}
    return (
        isinstance(baseline.get("speedup_vs_serial"), (int, float))
        and parallel.get("cpu_count", 0) >= 4
    )


def streaming_memory_failures(streaming: dict) -> list[str]:
    """Violations of the out-of-core memory contract (docs/streaming.md)."""
    config = streaming["config"]
    failures = []
    if streaming["stream_rss_mb"] >= streaming["inmem_rss_mb"]:
        failures.append(
            f"streaming memory: {config['stream_graphs']}-graph streamed epoch "
            f"peaked at {streaming['stream_rss_mb']:.0f}MB RSS, not below the "
            f"in-memory loader's {streaming['inmem_rss_mb']:.0f}MB at "
            f"{config['inmem_graphs']} graphs"
        )
    ratio = streaming["delta_ratio"]
    if ratio is not None and ratio > config["rss_fraction"]:
        failures.append(
            f"streaming memory: RSS growth over interpreter baseline is "
            f"{streaming['stream_delta_mb']:.0f}MB streamed vs "
            f"{streaming['inmem_delta_mb']:.0f}MB in-memory "
            f"(ratio {ratio:.2f} > allowed {config['rss_fraction']:.2f})"
        )
    return failures


def _stream_step_time(
    num_graphs: int = 512, shard_size: int = 64, batch_size: int = 8
) -> float:
    """Mean seconds per training batch served from a StreamingDataset.

    One warm-up epoch (page cache, first-touch allocations), then one
    timed shuffled epoch; with the corpus at 8 shards against a 2-shard
    LRU window, the timed epoch pays the steady-state decode +
    feature-attach cost rather than an all-cached fiction.
    """
    from repro.data.sharding import shard_dataset
    from repro.data.streaming import StreamingDataset

    with tempfile.TemporaryDirectory() as tmp:
        shard_dataset("MUTAG", num_graphs, 0, tmp, shard_size, chunked=True)
        with StreamingDataset(tmp, max_cached_shards=2) as stream:

            def epoch(seed: int) -> None:
                order = stream.shuffled_order(seed)
                stream.plan_epoch(order)
                for index in order:
                    stream[int(index)]

            epoch(0)  # warm-up outside the timed region
            start = time.perf_counter()
            epoch(1)
            elapsed = time.perf_counter() - start
    return elapsed / max(1, num_graphs // batch_size)


def _dense_step_time(
    batch_size: int = 8, n: int = 64, features: int = 8
) -> float:
    """Seconds for one warm padded-batch HAP forward+backward.

    The fused MOA + coarsening hot path (docs/performance.md) on a
    dense ``(B, N, ·)`` padded batch, with the gradient buffer pool
    active and warm — exactly the per-step work the trainer does with
    ``TrainConfig(batched=True)``.
    """
    import numpy as np

    from repro.core import build_hap_embedder
    from repro.tensor import BufferPool, Tensor, buffer_pool

    embedder = build_hap_embedder(
        features, 16, [16, 4], np.random.default_rng(0)
    )
    embedder.eval()
    rng = np.random.default_rng(1)
    upper = np.triu(rng.random((batch_size, n, n)) < 0.15, 1).astype(np.float64)
    adjacency = upper + np.swapaxes(upper, 1, 2)
    counts = rng.integers(n // 2, n + 1, size=batch_size)
    mask = (np.arange(n)[None, :] < counts[:, None]).astype(np.float64)
    adjacency *= mask[:, :, None] * mask[:, None, :]
    feats = rng.normal(size=(batch_size, n, features))
    pool = BufferPool()

    def step() -> None:
        with buffer_pool(pool):
            embedder.zero_grad()
            levels = embedder.embed_levels(adjacency, Tensor(feats), mask)
            total = levels[0].sum()
            for level in levels[1:]:
                total = total + level.sum()
            total.backward()

    step()  # warm-up outside the timed region (primes the pool too)
    start = time.perf_counter()
    step()
    return time.perf_counter() - start


def _sparse_step_time(n: int = 2000, avg_degree: int = 8) -> float:
    """Seconds for one warm HAP forward+backward on the CSR backend."""
    import numpy as np

    from repro.core import build_hap_embedder
    from repro.graph import random_sparse_csr
    from repro.tensor import BufferPool, Tensor, buffer_pool

    embedder = build_hap_embedder(8, 16, [16, 4], np.random.default_rng(0))
    embedder.eval()
    csr = random_sparse_csr(n, avg_degree, np.random.default_rng(1))
    features = np.random.default_rng(2).normal(size=(n, 8))
    pool = BufferPool()

    def step() -> None:
        with buffer_pool(pool):
            embedder.zero_grad()
            levels = embedder.embed_levels(csr, Tensor(features))
            total = levels[0].sum()
            for level in levels[1:]:
                total = total + level.sum()
            total.backward()

    step()  # warm-up outside the timed region (primes the pool too)
    start = time.perf_counter()
    step()
    return time.perf_counter() - start


def ratchet_baseline(baseline: dict | None, report: dict) -> tuple[dict, list[str]]:
    """Merge ``report`` into ``baseline`` so every floor only improves.

    Timings keep the *faster* of old and new; throughput floors keep
    the *higher*; a speedup recorded by a ≥4-core host survives runs
    that could not measure one.  The second return value lists the
    floors this run lowered (for the CLI summary).  A slower value is
    never written, so regressions cannot be laundered into the baseline
    by re-running ``--update-baseline`` — an intentional trade-off
    needs an explicit ``--reset-baseline``.
    """
    if not baseline or baseline.get("schema") != BENCH_SCHEMA:
        return report, sorted(
            name for name, value in report.get("timings", {}).items()
            if isinstance(value, (int, float))
        )
    merged = dict(report)
    improved: list[str] = []
    old_timings = baseline.get("timings", {})
    new_timings = dict(report.get("timings", {}))
    for name, old in old_timings.items():
        if not isinstance(old, (int, float)):
            continue
        new = new_timings.get(name)
        if not isinstance(new, (int, float)) or new > old:
            new_timings[name] = old  # keep the recorded floor
        elif new < old:
            improved.append(name)
    improved.extend(
        name for name, value in new_timings.items()
        if name not in old_timings and isinstance(value, (int, float))
    )
    merged["timings"] = new_timings

    # Higher-is-better floors ratchet upward.
    old_speedup = baseline.get("speedup_vs_serial")
    new_speedup = merged.get("speedup_vs_serial")
    keep_old_parallel = isinstance(old_speedup, (int, float)) and (
        not isinstance(new_speedup, (int, float)) or new_speedup < old_speedup
    )
    if keep_old_parallel:
        merged["speedup_vs_serial"] = old_speedup
        if "parallel" in baseline:
            merged["parallel"] = baseline["parallel"]
    old_rps = (baseline.get("serving") or {}).get("throughput_rps")
    serving = merged.get("serving")
    if (
        isinstance(serving, dict)
        and isinstance(old_rps, (int, float))
        and serving.get("throughput_rps", 0) < old_rps
    ):
        serving = dict(serving)
        serving["throughput_rps"] = old_rps
        merged["serving"] = serving

    # Lower-is-better quality floor: the recorded molecular RMSE only
    # ever tightens (whichever side is lower keeps its whole record).
    old_molecular = baseline.get("molecular")
    new_molecular = merged.get("molecular")
    if isinstance(old_molecular, dict) and isinstance(
        old_molecular.get("rmse"), (int, float)
    ):
        new_rmse = (new_molecular or {}).get("rmse")
        if not isinstance(new_rmse, (int, float)) or new_rmse > old_molecular["rmse"]:
            merged["molecular"] = old_molecular
        elif new_rmse < old_molecular["rmse"]:
            improved.append("molecular.rmse")
    return merged, sorted(improved)


def compare(report: dict, baseline: dict, threshold: float) -> list[str]:
    """Regressions of ``report`` vs ``baseline`` beyond ``threshold``.

    Only timings present and numeric in *both* reports are compared, so
    a single-core run is never judged against a multi-core baseline's
    parallel timings.  Millisecond-scale timings get an absolute grace
    of 25ms on top of the relative threshold — scheduler jitter on a
    shared CI runner must not flap the gate.
    """
    failures = []
    base_timings = baseline.get("timings", {})
    for name, value in report["timings"].items():
        base = base_timings.get(name)
        if not isinstance(value, (int, float)) or not isinstance(base, (int, float)):
            continue
        if value > base * (1.0 + threshold) and value - base > 0.025:
            failures.append(
                f"{name}: {value:.3f}s vs baseline {base:.3f}s "
                f"(+{(value / base - 1.0):.0%}, threshold +{threshold:.0%})"
            )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    parser.add_argument("--baseline", type=Path, default=DEFAULT_BASELINE)
    parser.add_argument(
        "--threshold", type=float, default=0.25,
        help="fail when a hot path is this fraction slower than baseline",
    )
    parser.add_argument(
        "--require-speedup", type=float, default=None,
        help="minimum parallel speedup (default 2.0), enforced on hosts "
        "with >= 4 cores; passing the flag explicitly on a smaller host "
        "errors out unless the baseline records a >=4-core speedup",
    )
    parser.add_argument(
        "--workers", type=int, default=None,
        help="parallel worker count (default: min(4, cpu_count))",
    )
    parser.add_argument(
        "--update-baseline", action="store_true",
        help="ratchet the baseline: keep the best of old and new for "
        "every floor (timings min-merge, throughput max-merge); "
        "regressions are never written",
    )
    parser.add_argument(
        "--reset-baseline", action="store_true",
        help="rewrite the baseline wholesale from this run (explicit "
        "rebase after an intentional trade-off)",
    )
    args = parser.parse_args(argv)

    require_speedup = 2.0 if args.require_speedup is None else args.require_speedup
    cpu_count = os.cpu_count() or 1
    if args.require_speedup is not None and cpu_count < 4:
        committed = None
        if args.baseline.exists():
            committed = json.loads(args.baseline.read_text(encoding="utf-8"))
        if not speedup_enforceable(cpu_count, committed):
            print(
                f"bench ERROR: --require-speedup {args.require_speedup:.1f} "
                f"was explicitly requested, but this host has {cpu_count} "
                f"core(s) (< 4) and {args.baseline} records no >=4-core "
                "speedup — the floor cannot be enforced here.  Run the gate "
                "on a >=4-core host (which also records the speedup into the "
                "baseline) or drop --require-speedup."
            )
            return 2

    report = measure(parallel_workers=args.workers)
    args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    speedup = report["speedup_vs_serial"]
    if speedup is not None:
        detail = (
            f"parallel {report['timings']['crossval_parallel_s']:.2f}s "
            f"({report['parallel_workers']} workers on "
            f"{report['cpu_count']} core(s), speedup {speedup:.2f}x)"
        )
    else:
        detail = report["parallel"].get("note", "parallel timing skipped")
    print(
        f"bench: serial {report['timings']['crossval_serial_s']:.2f}s, "
        f"{detail}, wrote {args.out.relative_to(REPO)}"
    )
    print(
        f"bench: step {report['timings']['step_s'] * 1e3:.2f}ms padded-dense, "
        f"{report['timings']['sparse_step_s'] * 1e3:.2f}ms sparse (2000 nodes)"
    )
    serving = report["serving"]
    print(
        f"bench: serving {serving['throughput_rps']:.0f} req/s micro-batched "
        f"vs {serving['serial_throughput_rps']:.0f} req/s serial "
        f"({serving['batching_speedup']:.2f}x), p50 "
        f"{report['timings']['serve_p50_s'] * 1e3:.2f}ms, p99 "
        f"{report['timings']['serve_p99_s'] * 1e3:.2f}ms, cache hit rate "
        f"{serving['cache_hit_rate']:.0%}"
    )
    streaming = report["streaming"]
    print(
        f"bench: streaming {streaming['config']['stream_graphs']} graphs "
        f"peaked at {streaming['stream_rss_mb']:.0f}MB RSS vs in-memory "
        f"{streaming['config']['inmem_graphs']} graphs at "
        f"{streaming['inmem_rss_mb']:.0f}MB (interpreter baseline "
        f"{streaming['baseline_rss_mb']:.0f}MB), stream_step "
        f"{report['timings']['stream_step_s'] * 1e3:.2f}ms"
    )
    molecular = report["molecular"]
    print(
        f"bench: molecular test RMSE {molecular['rmse']:.4f} "
        f"(MAE {molecular['mae']:.4f}) vs mean-predictor "
        f"{molecular['mean_predictor_rmse']:.4f}"
    )

    # These contracts are absolute — no baseline required, and
    # --update-baseline must not launder a violation into the baseline.
    absolute_failures = streaming_memory_failures(streaming)
    absolute_failures += molecular_failures(molecular, None, args.threshold)
    for failure in absolute_failures:
        print(f"bench REGRESSION: {failure}")
    if absolute_failures:
        return 1

    if args.update_baseline or args.reset_baseline:
        old = None
        if args.update_baseline and not args.reset_baseline and args.baseline.exists():
            old = json.loads(args.baseline.read_text(encoding="utf-8"))
        if args.reset_baseline:
            merged, improved = report, ["(reset)"]
        else:
            merged, improved = ratchet_baseline(old, report)
        args.baseline.parent.mkdir(parents=True, exist_ok=True)
        args.baseline.write_text(
            json.dumps(merged, indent=2) + "\n", encoding="utf-8"
        )
        verb = "reset" if args.reset_baseline else "ratcheted"
        what = ", ".join(improved) if improved else "no floor improved"
        print(
            f"bench: baseline {verb} at {args.baseline.relative_to(REPO)} "
            f"({what})"
        )
        return 0

    if not args.baseline.exists():
        print(
            f"bench: no baseline at {args.baseline} — run with "
            "--update-baseline to create one (gate passes vacuously)"
        )
        return 0
    baseline = json.loads(args.baseline.read_text(encoding="utf-8"))
    if baseline.get("schema") != BENCH_SCHEMA:
        print(f"bench: baseline schema {baseline.get('schema')!r} unsupported")
        return 1
    failures = compare(report, baseline, args.threshold)
    failures.extend(molecular_failures(molecular, baseline, args.threshold))
    # Micro-batching must strictly beat serving one request at a time —
    # the whole point of the request queue (docs/serving.md).
    if serving["throughput_rps"] <= serving["serial_throughput_rps"]:
        failures.append(
            f"serving throughput: micro-batched {serving['throughput_rps']:.0f} "
            f"req/s not above serial {serving['serial_throughput_rps']:.0f} req/s"
        )
    base_serving = baseline.get("serving")
    if base_serving and isinstance(base_serving.get("throughput_rps"), (int, float)):
        floor = base_serving["throughput_rps"] * (1.0 - args.threshold)
        if serving["throughput_rps"] < floor:
            failures.append(
                f"serving throughput: {serving['throughput_rps']:.0f} req/s vs "
                f"baseline {base_serving['throughput_rps']:.0f} req/s "
                f"(below -{args.threshold:.0%} floor)"
            )
    if report["cpu_count"] >= 4 and speedup is not None:
        if speedup < require_speedup:
            failures.append(
                f"speedup_vs_serial: {speedup:.2f}x < required "
                f"{require_speedup:.1f}x on a {report['cpu_count']}-core host"
            )
    elif speedup is not None:
        print(
            f"bench: speedup {speedup:.2f}x recorded but not enforced "
            f"({report['cpu_count']} core(s) < 4)"
        )
    else:
        base_parallel = baseline.get("parallel") or {}
        base_speedup = baseline.get("speedup_vs_serial")
        if (
            isinstance(base_speedup, (int, float))
            and base_parallel.get("cpu_count", 0) >= 4
        ):
            print(
                f"bench: {report['parallel']['note']}; baseline keeps the "
                f"{base_speedup:.2f}x speedup recorded on a "
                f"{base_parallel['cpu_count']}-core host, so enforcement "
                "re-arms on the next multi-core run"
            )
    for failure in failures:
        print(f"bench REGRESSION: {failure}")
    if failures:
        return 1
    print("bench: no regression against baseline")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
