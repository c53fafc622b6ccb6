"""Peak memory and step time of a CSR level 0 vs the dense adjacency
(docs/sparse.md).

Runs one HAP training step (embed_levels forward + backward) on random
sparse graphs of N ∈ {500, 2000, 5000} nodes (average degree ~8) and
records wall time and tracemalloc peak memory for both adjacency
layouts.  Each probe builds its step's adjacency: the CSR graph is
O(E), the dense ``(N, N)`` float64 array Θ(N²) — 32 MB at N = 2000 and
200 MB at N = 5000 — so the quick profile runs dense only up to
N = 2000 (``REPRO_BENCH_SCALE=full`` adds dense N = 5000 for the full
curve).  The dense step itself allocates no further ``(N, N)`` matrix:
``gcn_propagate`` scales rows instead of normalising the adjacency.

The acceptance bars for this reproduction:

- a CSR level 0 *trains* at N = 5000,
- its peak memory at N = 5000 stays below the dense layout's at
  N = 2000 (~O(E) vs Θ(N²): 6.25x more nodes, less memory),
- its memory grows ~O(E) from N = 500 to N = 5000.
"""

from __future__ import annotations

import time
import tracemalloc

import numpy as np
import pytest

from benchmarks.conftest import SCALE, persist_rows, run_once
from repro.core import build_hap_embedder
from repro.graph import random_sparse_csr
from repro.tensor import Tensor

SIZES = (500, 2000, 5000)
AVG_DEGREE = 8
FEAT_DIM = 8
HIDDEN = 16

pytestmark = pytest.mark.bench


def _build_embedder(seed: int):
    emb = build_hap_embedder(FEAT_DIM, HIDDEN, [16, 4], np.random.default_rng(seed))
    emb.eval()  # deterministic step; noise draws don't affect scaling
    return emb


def _train_step(embedder, adjacency, features: np.ndarray) -> None:
    embedder.zero_grad()
    levels = embedder.embed_levels(adjacency, Tensor(features))
    total = levels[0].sum()
    for level in levels[1:]:
        total = total + level.sum()
    total.backward()


def _measure(embedder, make_adjacency, features: np.ndarray) -> dict:
    """Wall time of one warm training step, and its tracemalloc peak
    counting the adjacency ``make_adjacency()`` builds for it."""
    _train_step(embedder, make_adjacency(), features)  # warm-up outside the probe
    tracemalloc.start()
    adjacency = make_adjacency()
    start = time.perf_counter()
    _train_step(embedder, adjacency, features)
    step_s = time.perf_counter() - start
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return {"step_s": round(step_s, 4), "peak_mb": round(peak / 2**20, 2)}


def test_sparse_scaling(benchmark):
    def experiment():
        rows = {}
        for n in SIZES:
            rng = np.random.default_rng(n)
            csr = random_sparse_csr(n, AVG_DEGREE, rng)
            features = rng.normal(size=(n, FEAT_DIM))
            embedder = _build_embedder(seed=1)
            rows[f"sparse_N={n}"] = _measure(embedder, lambda: csr, features)
            # The dense reference densifies deliberately; Θ(N²) makes
            # N = 5000 a full-profile-only measurement.
            if n < 5000 or SCALE == "full":
                rows[f"dense_N={n}"] = _measure(
                    _build_embedder(seed=1), csr.to_dense, features
                )
        return rows

    rows = run_once(benchmark, experiment)
    persist_rows("sparse_scaling", rows)
    for name, row in rows.items():
        print(name, row)

    # A 5000-node graph trains on a CSR level 0 with less peak memory
    # than the dense layout needs for 2000 nodes.
    assert rows["sparse_N=5000"]["peak_mb"] < rows["dense_N=2000"]["peak_mb"]
    # And sparse memory growth is ~O(E), i.e. roughly linear in N: going
    # 500 -> 5000 (10x nodes/edges) must not cost anywhere near the
    # 100x a quadratic path would pay.
    assert (
        rows["sparse_N=5000"]["peak_mb"]
        < 30 * max(rows["sparse_N=500"]["peak_mb"], 0.1)
    )
