"""Fused hot-path training step vs the pre-fusion execution path.

Times one warm HAP training step (forward + backward on a 2000-node
random sparse graph) through the current fused path — fused
``masked_softmax_mean`` / ``matmul_tn`` / ``coarsen_chain`` /
``gcn_propagate`` kernels, scipy-backed ``spmm``, gradient buffer pool
— and through an in-process emulation of the pre-fusion path: the
fusion sites monkeypatched back to their unfused op compositions (a
CSR adjacency normalised into its own matrix, then one ``spmm``), the
compiled CSR kernels disabled (forcing the ``np.add.at`` scatter
reference ``spmm`` ran before), and no buffer pool.  Asserts the fused step is at
least 1.3x faster (the fusion change's acceptance bar; measured ~5x)
and that both paths produce the same loss to 1e-6.
See docs/performance.md.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

import repro.core.moa as moa_mod
import repro.gnn.layers as layers_mod
import repro.pooling.base as pooling_base
import repro.tensor.sparse as sparse_mod
from benchmarks.conftest import persist_rows, run_once
from repro.core import build_hap_embedder
from repro.graph import random_sparse_csr
from repro.tensor import (
    BufferPool,
    CSRMatrix,
    Tensor,
    as_tensor,
    buffer_pool,
    masked_softmax,
    softmax,
    spmm,
    transpose,
)

pytestmark = pytest.mark.bench

NODES, AVG_DEGREE, FEATURES = 2000, 8, 8
SPEEDUP_FLOOR = 1.3
REPEATS = 5


# ---------------------------------------------------------------------------
# The pre-fusion op compositions (what the model code ran before the
# fused kernels landed) — same signatures as their fused replacements.

def _unfused_masked_softmax_mean(a, mask=None, axis=-2, mean_axis=-1):
    if mask is None:
        return softmax(a, axis=axis).mean(axis=mean_axis)
    return masked_softmax(a, mask, axis=axis).mean(axis=mean_axis)


def _unfused_matmul_tn(a, b):
    if a.ndim == 2:
        return a.T @ b
    return transpose(a, (0, 2, 1)) @ b


def _unfused_coarsen_chain(assignment, adjacency):
    if isinstance(adjacency, CSRMatrix):
        return assignment.T @ spmm(adjacency, assignment)
    if adjacency.ndim == 2:
        return assignment.T @ (adjacency @ assignment)
    assignment_t = transpose(assignment, (0, 2, 1))
    return assignment_t @ adjacency @ assignment


def _unfused_sym_normalize(adjacency, eps=1e-8):
    n = adjacency.shape[-1]
    a_tilde = adjacency + Tensor(np.eye(n))
    inv_sqrt = (a_tilde.sum(axis=-1) + eps) ** -0.5
    if adjacency.ndim == 2:
        return a_tilde * inv_sqrt.reshape(n, 1) * inv_sqrt.reshape(1, n)
    batch = adjacency.shape[0]
    return (
        a_tilde
        * inv_sqrt.reshape(batch, n, 1)
        * inv_sqrt.reshape(batch, 1, n)
    )


def _unfused_sym_normalize_sparse(adjacency, eps=1e-8):
    def build(adjacency):
        adj_tilde = adjacency.with_self_loops()
        inv_sqrt = (adj_tilde.row_sums() + eps) ** -0.5
        return adj_tilde.with_data(
            inv_sqrt[adj_tilde.row_ids] * adj_tilde.data * inv_sqrt[adj_tilde.indices]
        )

    return adjacency.cached(("sym_norm", eps), build)


def _unfused_gcn_propagate(adjacency, x, eps=1e-8):
    if isinstance(adjacency, CSRMatrix):
        return spmm(_unfused_sym_normalize_sparse(adjacency, eps), x)
    return _unfused_sym_normalize(as_tensor(adjacency), eps) @ x


def _emulate_pre_fusion(monkeypatch):
    """Swap the fusion sites back to unfused compositions, scipy off."""
    monkeypatch.setattr(moa_mod, "masked_softmax_mean", _unfused_masked_softmax_mean)
    monkeypatch.setattr(moa_mod, "matmul_tn", _unfused_matmul_tn)
    # Coarsening.forward runs Reduce and Connect (Eq. 17 and 18)
    monkeypatch.setattr(pooling_base, "coarsen_chain", _unfused_coarsen_chain)
    monkeypatch.setattr(pooling_base, "matmul_tn", _unfused_matmul_tn)
    monkeypatch.setattr(layers_mod, "gcn_propagate", _unfused_gcn_propagate)
    # pre-fusion spmm scattered with np.add.at; without the compiled
    # kernels CSRMatrix.matmul runs that reference path
    monkeypatch.setattr(sparse_mod, "_KERNELS", None)


def _build_step(pool):
    """A warm sparse training step closure."""
    embedder = build_hap_embedder(FEATURES, 16, [16, 4], np.random.default_rng(0))
    embedder.eval()
    csr = random_sparse_csr(NODES, AVG_DEGREE, np.random.default_rng(1))
    features = np.random.default_rng(2).normal(size=(NODES, FEATURES))

    def step() -> float:
        import contextlib

        ctx = buffer_pool(pool) if pool is not None else contextlib.nullcontext()
        with ctx:
            embedder.zero_grad()
            levels = embedder.embed_levels(csr, Tensor(features))
            total = levels[0].sum()
            for level in levels[1:]:
                total = total + level.sum()
            total.backward()
            return float(total.data)

    return step


def _best_of(step, repeats=REPEATS):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        step()
        best = min(best, time.perf_counter() - start)
    return best


def test_fused_step_speedup(benchmark, monkeypatch):
    def experiment():
        fused_step = _build_step(BufferPool())
        fused_loss = fused_step()  # warm-up primes the pool
        fused_s = _best_of(fused_step)

        with monkeypatch.context() as patched:
            _emulate_pre_fusion(patched)
            unfused_step = _build_step(None)
            unfused_loss = unfused_step()
            unfused_s = _best_of(unfused_step, repeats=3)

        np.testing.assert_allclose(fused_loss, unfused_loss, atol=1e-6, rtol=1e-9)
        speedup = unfused_s / fused_s
        assert speedup >= SPEEDUP_FLOOR, (
            f"fused step only {speedup:.2f}x vs pre-fusion path "
            f"({fused_s * 1e3:.1f}ms vs {unfused_s * 1e3:.1f}ms), "
            f"floor is {SPEEDUP_FLOOR}x"
        )
        return {
            "fused_vs_unfused": {
                "unfused_step_s": round(unfused_s, 6),
                "fused_step_s": round(fused_s, 6),
                "speedup": round(speedup, 4),
                "floor": SPEEDUP_FLOOR,
            },
            "workload": {
                "nodes": NODES,
                "avg_degree": AVG_DEGREE,
                "features": FEATURES,
                "repeats": REPEATS,
            },
        }

    rows = run_once(benchmark, experiment)
    persist_rows("fused_speedup", rows)
    for name, row in rows.items():
        print(name, row)
