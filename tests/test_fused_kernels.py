"""Fused hot-path kernels match their unfused compositions.

The ``pytest -m fused`` CI gate (docs/performance.md): every fused
kernel in :mod:`repro.tensor.ops` — ``masked_softmax_mean``,
``matmul_tn``, ``coarsen_chain``, ``gcn_propagate`` — and the
``sym_normalize`` oracle of tests/gcn_reference.py are pinned against the multi-node tape composition it replaced, on all
three execution paths (dense single-graph, sparse CSR, padded batch):

- forward values bitwise where the kernel preserves arithmetic order,
  and always within 1e-6;
- backward values within 1e-6 of the unfused tape (they agree to
  round-off), plus finite-difference gradchecks for every kernel;
- the model-level fusion sites (MOA attention, the coarsening chain,
  GCN propagation) produce the same losses and parameter gradients
  as the pre-fusion compositions.

The gradient buffer pool rides the same gate: pooled backward must be
*bitwise* identical to unpooled, since it only changes where arrays
come from, never what is written into them.
"""

import numpy as np
import pytest

from repro.graph import random_sparse_csr
from repro.tensor import (
    BufferPool,
    CSRMatrix,
    Tensor,
    buffer_pool,
    check_gradients,
    coarsen_chain,
    gcn_propagate,
    masked_softmax,
    masked_softmax_mean,
    matmul_tn,
    softmax,
    spmm,
    transpose,
)
from tests.gcn_reference import normalize_adjacency, sym_normalize

pytestmark = pytest.mark.fused

TOL = 1e-6


def _rng(seed: int = 0) -> np.random.Generator:
    return np.random.default_rng(seed)


class TestMaskedSoftmaxMean:
    def test_unmasked_matches_softmax_mean_bitwise(self):
        rng = _rng(1)
        scores = Tensor(rng.normal(size=(7, 5, 3)), requires_grad=True)
        fused = masked_softmax_mean(scores, axis=1, mean_axis=2)
        unfused = softmax(Tensor(scores.data), axis=1).mean(axis=2)
        assert np.array_equal(fused.data, unfused.data)

    def test_masked_matches_masked_softmax_mean_bitwise(self):
        rng = _rng(2)
        scores = Tensor(rng.normal(size=(3, 6, 6, 4)), requires_grad=True)
        # (B, N, 1, 1) validity mask, rows fully masked included
        mask = (rng.random((3, 6, 1, 1)) > 0.4).astype(np.float64)
        fused = masked_softmax_mean(scores, mask, axis=2, mean_axis=3)
        unfused = masked_softmax(Tensor(scores.data), mask, axis=2).mean(axis=3)
        assert np.array_equal(fused.data, unfused.data)

    @pytest.mark.parametrize("heads", [1, 4])
    def test_backward_matches_unfused(self, heads):
        rng = _rng(3)
        a = Tensor(rng.normal(size=(5, 5, heads)), requires_grad=True)
        b = Tensor(a.data.copy(), requires_grad=True)
        grad = rng.normal(size=(5, 5))
        masked_softmax_mean(a, axis=0, mean_axis=2).backward(grad)
        softmax(b, axis=0).mean(axis=2).backward(grad)
        np.testing.assert_allclose(a.grad, b.grad, atol=TOL, rtol=0)

    def test_masked_backward_matches_unfused(self):
        rng = _rng(4)
        a = Tensor(rng.normal(size=(2, 4, 3, 2)), requires_grad=True)
        b = Tensor(a.data.copy(), requires_grad=True)
        mask = (rng.random((2, 4, 1, 1)) > 0.3).astype(np.float64)
        grad = rng.normal(size=(2, 4, 3))
        masked_softmax_mean(a, mask, axis=2, mean_axis=3).backward(grad)
        masked_softmax(b, mask, axis=2).mean(axis=3).backward(grad)
        np.testing.assert_allclose(a.grad, b.grad, atol=TOL, rtol=0)

    @pytest.mark.parametrize("heads", [1, 3])
    def test_gradcheck(self, heads):
        rng = _rng(5)
        a = Tensor(rng.normal(size=(4, 3, heads)), requires_grad=True)
        check_gradients(
            lambda: (masked_softmax_mean(a, axis=1, mean_axis=2) ** 2.0).sum(),
            [a],
        )

    def test_masked_gradcheck(self):
        rng = _rng(6)
        a = Tensor(rng.normal(size=(3, 4, 2)), requires_grad=True)
        mask = (rng.random((3, 1, 1)) > 0.2).astype(np.float64)
        check_gradients(
            lambda: (masked_softmax_mean(a, mask, axis=1, mean_axis=2) ** 2.0).sum(),
            [a],
        )


class TestMatmulTn:
    def test_2d_matches_transpose_matmul_bitwise(self):
        rng = _rng(7)
        a = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
        fused = matmul_tn(a, b)
        unfused = Tensor(a.data).T @ Tensor(b.data)
        assert np.array_equal(fused.data, unfused.data)

    def test_3d_matches_transpose_bmm_bitwise(self):
        rng = _rng(8)
        a = Tensor(rng.normal(size=(2, 5, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(2, 5, 4)), requires_grad=True)
        fused = matmul_tn(a, b)
        unfused = transpose(Tensor(a.data), (0, 2, 1)) @ Tensor(b.data)
        assert np.array_equal(fused.data, unfused.data)

    def test_backward_matches_unfused(self):
        rng = _rng(9)
        a1 = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
        b1 = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
        a2 = Tensor(a1.data.copy(), requires_grad=True)
        b2 = Tensor(b1.data.copy(), requires_grad=True)
        grad = rng.normal(size=(3, 4))
        matmul_tn(a1, b1).backward(grad)
        (a2.T @ b2).backward(grad)
        np.testing.assert_allclose(a1.grad, a2.grad, atol=TOL, rtol=0)
        np.testing.assert_allclose(b1.grad, b2.grad, atol=TOL, rtol=0)

    @pytest.mark.parametrize("shape_a,shape_b", [((5, 2), (5, 3)), ((2, 4, 2), (2, 4, 3))])
    def test_gradcheck(self, shape_a, shape_b):
        rng = _rng(10)
        a = Tensor(rng.normal(size=shape_a), requires_grad=True)
        b = Tensor(rng.normal(size=shape_b), requires_grad=True)
        check_gradients(lambda: (matmul_tn(a, b) ** 2.0).sum(), [a, b])

    def test_rank_mismatch_rejected(self):
        with pytest.raises(ValueError):
            matmul_tn(Tensor(np.zeros((2, 2))), Tensor(np.zeros((1, 2, 2))))


class TestCoarsenChain:
    def test_dense_matches_unfused_chain(self):
        rng = _rng(11)
        m = Tensor(rng.normal(size=(8, 3)), requires_grad=True)
        adj = Tensor(rng.random((8, 8)), requires_grad=True)
        fused = coarsen_chain(m, adj)
        unfused = Tensor(m.data).T @ Tensor(adj.data) @ Tensor(m.data)
        np.testing.assert_allclose(fused.data, unfused.data, atol=TOL, rtol=0)

    def test_dense_backward_matches_unfused(self):
        rng = _rng(12)
        m1 = Tensor(rng.normal(size=(7, 3)), requires_grad=True)
        a1 = Tensor(rng.random((7, 7)), requires_grad=True)
        m2 = Tensor(m1.data.copy(), requires_grad=True)
        a2 = Tensor(a1.data.copy(), requires_grad=True)
        grad = rng.normal(size=(3, 3))
        coarsen_chain(m1, a1).backward(grad)
        (m2.T @ a2 @ m2).backward(grad)
        np.testing.assert_allclose(m1.grad, m2.grad, atol=TOL, rtol=0)
        np.testing.assert_allclose(a1.grad, a2.grad, atol=TOL, rtol=0)

    def test_padded_matches_unfused_bmm_chain(self):
        rng = _rng(13)
        m = Tensor(rng.normal(size=(3, 6, 2)), requires_grad=True)
        adj = Tensor(rng.random((3, 6, 6)), requires_grad=True)
        fused = coarsen_chain(m, adj)
        m_t = transpose(Tensor(m.data), (0, 2, 1))
        unfused = m_t @ Tensor(adj.data) @ Tensor(m.data)
        np.testing.assert_allclose(fused.data, unfused.data, atol=TOL, rtol=0)

    def test_sparse_matches_spmm_composition(self):
        rng = _rng(14)
        csr = random_sparse_csr(30, 4, rng)
        m1 = Tensor(rng.normal(size=(30, 5)), requires_grad=True)
        m2 = Tensor(m1.data.copy(), requires_grad=True)
        fused = coarsen_chain(m1, csr)
        unfused = m2.T @ spmm(csr, m2)
        np.testing.assert_allclose(fused.data, unfused.data, atol=TOL, rtol=0)
        grad = rng.normal(size=(5, 5))
        fused.backward(grad)
        unfused.backward(grad)
        np.testing.assert_allclose(m1.grad, m2.grad, atol=TOL, rtol=0)

    def test_sparse_matches_dense_chain(self):
        rng = _rng(15)
        dense = (rng.random((20, 20)) < 0.3).astype(np.float64)
        dense = np.triu(dense, 1)
        dense = dense + dense.T
        csr = CSRMatrix.from_dense(dense)
        m = Tensor(rng.normal(size=(20, 4)), requires_grad=True)
        sparse_out = coarsen_chain(m, csr)
        dense_out = coarsen_chain(Tensor(m.data), Tensor(dense))
        np.testing.assert_allclose(sparse_out.data, dense_out.data, atol=TOL, rtol=0)

    @pytest.mark.parametrize("sparse", [False, True])
    def test_gradcheck(self, sparse):
        rng = _rng(16)
        m = Tensor(rng.normal(size=(10, 3)), requires_grad=True)
        if sparse:
            adj = random_sparse_csr(10, 3, rng)
            tensors = [m]
        else:
            adj = Tensor(rng.random((10, 10)), requires_grad=True)
            tensors = [m, adj]
        check_gradients(lambda: (coarsen_chain(m, adj) ** 2.0).sum(), tensors)


class TestSpmmScipyPath:
    """scipy-backed spmm is bitwise identical to the scatter reference.

    The compiled kernels accumulate each output row over its entries in
    ascending order of their other index — the CSR product by column,
    the transposed (CSC) product by row — the order the ``np.add.at``
    reference walks them, so the two paths agree bitwise (the
    ``CSRMatrix.matmul`` docstring relies on this).
    """

    @staticmethod
    def _bitwise(monkeypatch, weighted):
        import repro.tensor.sparse as sparse_mod

        rng = _rng(21)
        csr = random_sparse_csr(40, 5, rng)
        h1 = Tensor(rng.normal(size=(40, 6)), requires_grad=True)
        h2 = Tensor(h1.data.copy(), requires_grad=True)
        weights = rng.random(csr.nnz)
        v1 = Tensor(weights, requires_grad=True) if weighted else None
        v2 = Tensor(weights.copy(), requires_grad=True) if weighted else None
        grad = rng.normal(size=(40, 6))
        out_scipy = spmm(csr, h1, values=v1)
        out_scipy.backward(grad)
        with monkeypatch.context() as patched:
            patched.setattr(sparse_mod, "_KERNELS", None)
            out_ref = spmm(csr, h2, values=v2)
            out_ref.backward(grad)
        assert np.array_equal(out_scipy.data, out_ref.data)
        assert np.array_equal(h1.grad, h2.grad)
        if weighted:
            assert np.array_equal(v1.grad, v2.grad)

    def test_forward_and_backward_bitwise(self, monkeypatch):
        self._bitwise(monkeypatch, weighted=False)

    def test_edge_weighted_forward_and_backward_bitwise(self, monkeypatch):
        self._bitwise(monkeypatch, weighted=True)

    def test_transposed_product_needs_no_transposed_structure(self):
        """``Aᵀ @ G`` of a non-symmetric CSR equals the product with its
        sorted transpose, bitwise, without building one."""
        rng = _rng(27)
        dense = (rng.random((9, 7)) < 0.4) * rng.normal(size=(9, 7))
        csr = CSRMatrix.from_dense(dense)
        g = rng.normal(size=(9, 3))
        fast = csr.matmul(g, transpose=True)
        assert "transpose" not in csr._cache
        assert np.array_equal(fast, csr.transpose().matmul(g))
        np.testing.assert_allclose(fast, dense.T @ g, atol=1e-12, rtol=0)

    def test_a_scipy_without_the_kernels_runs_the_reference(self, monkeypatch):
        """The kernels are private scipy names: a scipy lacking one
        imports the sparse module with the ``np.add.at`` reference."""
        import importlib.util
        import sys
        import types

        monkeypatch.setitem(
            sys.modules, "scipy.sparse._sparsetools", types.ModuleType("stub")
        )
        spec = importlib.util.find_spec("repro.tensor.sparse")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert module._KERNELS is None
        rng = _rng(28)
        dense = (rng.random((9, 7)) < 0.4) * rng.normal(size=(9, 7))
        csr = module.CSRMatrix.from_dense(dense)
        x, g = rng.normal(size=(7, 3)), rng.normal(size=9)
        np.testing.assert_allclose(csr.matmul(x), dense @ x, atol=1e-12, rtol=0)
        np.testing.assert_allclose(
            csr.matmul(g, transpose=True), dense.T @ g, atol=1e-12, rtol=0
        )


class TestSymNormalize:
    def test_single_matches_unfused_chain_bitwise(self):
        rng = _rng(17)
        adj = rng.random((9, 9))
        fused = sym_normalize(Tensor(adj))
        # the pre-fusion op chain, spelled out
        a = Tensor(adj, requires_grad=True)
        n = a.shape[0]
        a_tilde = a + Tensor(np.eye(n))
        degree = a_tilde.sum(axis=1)
        inv_sqrt = (degree + 1e-8) ** -0.5
        unfused = a_tilde * inv_sqrt.reshape(n, 1) * inv_sqrt.reshape(1, n)
        assert np.array_equal(fused.data, unfused.data)
        assert np.array_equal(fused.data, normalize_adjacency(adj).data)

    def test_batched_matches_unfused_chain_bitwise(self):
        rng = _rng(18)
        adj = Tensor(rng.random((3, 5, 5)))
        fused = sym_normalize(adj)
        a_tilde = Tensor(adj.data) + Tensor(np.eye(5))
        degree = a_tilde.sum(axis=-1)
        inv_sqrt = (degree + 1e-8) ** -0.5
        unfused = a_tilde * inv_sqrt.reshape(3, 5, 1) * inv_sqrt.reshape(3, 1, 5)
        assert np.array_equal(fused.data, unfused.data)

    def test_backward_matches_unfused(self):
        rng = _rng(19)
        a1 = Tensor(rng.random((6, 6)), requires_grad=True)
        a2 = Tensor(a1.data.copy(), requires_grad=True)
        grad = rng.normal(size=(6, 6))
        sym_normalize(a1).backward(grad)
        n = 6
        a_tilde = a2 + Tensor(np.eye(n))
        inv_sqrt = (a_tilde.sum(axis=1) + 1e-8) ** -0.5
        (a_tilde * inv_sqrt.reshape(n, 1) * inv_sqrt.reshape(1, n)).backward(grad)
        np.testing.assert_allclose(a1.grad, a2.grad, atol=TOL, rtol=0)

    @pytest.mark.parametrize("shape", [(5, 5), (2, 4, 4)])
    def test_gradcheck(self, shape):
        rng = _rng(20)
        adj = Tensor(rng.random(shape), requires_grad=True)
        check_gradients(lambda: (sym_normalize(adj) ** 2.0).sum(), [adj])


class TestGCNPropagate:
    """``gcn_propagate(A, x)`` is ``sym_normalize(A) @ x`` without the
    normalised matrix: forward and both gradients to 1e-12."""

    EXACT = 1e-12

    @staticmethod
    def _pair(rng, adj_shape, feat_shape):
        adj = rng.random(adj_shape)
        feats = rng.normal(size=feat_shape)
        return (
            Tensor(adj, requires_grad=True), Tensor(feats, requires_grad=True),
            Tensor(adj.copy(), requires_grad=True),
            Tensor(feats.copy(), requires_grad=True),
        )

    @pytest.mark.parametrize(
        "adj_shape,feat_shape", [((7, 7), (7, 3)), ((3, 6, 6), (3, 6, 4))]
    )
    def test_matches_sym_normalize_matmul(self, adj_shape, feat_shape):
        rng = _rng(22)
        a1, x1, a2, x2 = self._pair(rng, adj_shape, feat_shape)
        fused = gcn_propagate(a1, x1)
        oracle = sym_normalize(a2) @ x2
        np.testing.assert_allclose(fused.data, oracle.data, atol=self.EXACT, rtol=0)
        grad = rng.normal(size=feat_shape)
        fused.backward(grad)
        oracle.backward(grad)
        np.testing.assert_allclose(x1.grad, x2.grad, atol=self.EXACT, rtol=0)
        np.testing.assert_allclose(a1.grad, a2.grad, atol=self.EXACT, rtol=0)

    def test_csr_matches_dense(self):
        """A CSR adjacency keeps the self-loop as a separate term too;
        its per-entry weights are cached on the matrix."""
        rng = _rng(28)
        dense = np.triu((rng.random((8, 8)) < 0.4) * rng.random((8, 8)), 1)
        dense = dense + dense.T
        csr = CSRMatrix.from_dense(dense)
        x1 = Tensor(rng.normal(size=(8, 3)), requires_grad=True)
        x2 = Tensor(x1.data.copy(), requires_grad=True)
        sparse_out = gcn_propagate(csr, x1)
        dense_out = gcn_propagate(dense, x2)
        np.testing.assert_allclose(
            sparse_out.data, dense_out.data, atol=self.EXACT, rtol=0
        )
        grad = rng.normal(size=(8, 3))
        sparse_out.backward(grad)
        dense_out.backward(grad)
        np.testing.assert_allclose(x1.grad, x2.grad, atol=self.EXACT, rtol=0)
        assert ("gcn_weights", 1e-8) in csr._cache
        check_gradients(lambda: (gcn_propagate(csr, x1) ** 2.0).sum(), [x1])

    @pytest.mark.parametrize(
        "adj_shape,feat_shape", [((5, 5), (5, 3)), ((2, 4, 4), (2, 4, 3))]
    )
    def test_gradcheck(self, adj_shape, feat_shape):
        rng = _rng(23)
        adj = Tensor(rng.random(adj_shape), requires_grad=True)
        feats = Tensor(rng.normal(size=feat_shape), requires_grad=True)
        check_gradients(
            lambda: (gcn_propagate(adj, feats) ** 2.0).sum(), [adj, feats]
        )

    @pytest.mark.parametrize("as_tensor", [False, True])
    def test_constant_adjacency_gets_no_gradient(self, as_tensor):
        rng = _rng(24)
        dense = rng.random((3, 5, 5))
        adj = Tensor(dense) if as_tensor else dense  # level 0 passes numpy
        feats = Tensor(rng.normal(size=(3, 5, 2)), requires_grad=True)
        out = gcn_propagate(adj, feats)
        grad = rng.normal(size=(3, 5, 2))
        grad_x, grad_adj = out._backward(grad)
        assert grad_adj is None  # dA is skipped, not computed and dropped
        oracle_x = Tensor(feats.data.copy(), requires_grad=True)
        (sym_normalize(Tensor(dense)) @ oracle_x).backward(grad)
        np.testing.assert_allclose(grad_x, oracle_x.grad, atol=self.EXACT, rtol=0)
        out.backward(grad)
        if as_tensor:
            assert adj.grad is None

    def test_edgeless_graph(self):
        rng = _rng(25)
        feats = rng.normal(size=(4, 3))
        adj = Tensor(np.zeros((4, 4)), requires_grad=True)
        x = Tensor(feats, requires_grad=True)
        out = gcn_propagate(adj, x)
        # only the self-loop: degree 1, so every row is x / (1 + eps)
        d = (1.0 + 1e-8) ** -0.5
        assert np.array_equal(out.data, d * (d * feats))
        np.testing.assert_allclose(
            out.data, (sym_normalize(Tensor(np.zeros((4, 4)))) @ Tensor(feats)).data,
            atol=self.EXACT, rtol=0,
        )
        out.backward(np.ones((4, 3)))
        assert np.all(np.isfinite(adj.grad)) and np.all(np.isfinite(x.grad))

    def test_zero_padded_batch(self):
        rng = _rng(26)
        eps = 1e-8
        sizes, n_max, feat = (3, 5), 6, 2
        adj = np.zeros((len(sizes), n_max, n_max))
        feats = rng.normal(size=(len(sizes), n_max, feat))
        for b, n in enumerate(sizes):
            dense = np.triu((rng.random((n, n)) < 0.6).astype(np.float64), 1)
            adj[b, :n, :n] = dense + dense.T
        out = gcn_propagate(Tensor(adj), Tensor(feats), eps)
        d_pad = (1.0 + eps) ** -0.5
        for b, n in enumerate(sizes):
            single = gcn_propagate(Tensor(adj[b, :n, :n]), Tensor(feats[b, :n]), eps)
            np.testing.assert_allclose(
                out.data[b, :n], single.data, atol=self.EXACT, rtol=0
            )
            # zero rows and columns: padding nodes see only their self-loop
            assert np.array_equal(out.data[b, n:], d_pad * (d_pad * feats[b, n:]))

    @pytest.mark.parametrize(
        "adj_shape,feat_shape",
        [
            ((4, 4), (2, 4, 3)),   # rank mismatch
            ((2, 4, 4), (4, 3)),   # rank mismatch
            ((4,), (4,)),          # 1-D
            ((4, 5), (4, 3)),      # non-square adjacency
            ((4, 4), (5, 3)),      # node count mismatch
            ((2, 4, 4), (3, 4, 3)),  # batch mismatch
        ],
    )
    def test_shape_errors(self, adj_shape, feat_shape):
        with pytest.raises(ValueError):
            gcn_propagate(Tensor(np.zeros(adj_shape)), Tensor(np.zeros(feat_shape)))


class TestModelLevelFusion:
    """The fusion sites produce the same model outputs and gradients."""

    def _embedder(self, seed: int = 0):
        from repro.core import build_hap_embedder

        return build_hap_embedder(6, 8, [4, 2], _rng(seed))

    def _graph(self, n: int = 12, seed: int = 1):
        rng = _rng(seed)
        dense = np.triu((rng.random((n, n)) < 0.3).astype(np.float64), 1)
        dense = dense + dense.T
        return dense, rng.normal(size=(n, 6))

    def test_dense_and_sparse_paths_agree(self):
        dense, feats = self._graph()
        emb_d, emb_s = self._embedder(), self._embedder()
        emb_d.eval(), emb_s.eval()
        out_d = emb_d.embed_levels(dense, Tensor(feats))
        out_s = emb_s.embed_levels(CSRMatrix.from_dense(dense), Tensor(feats))
        for level_d, level_s in zip(out_d, out_s):
            np.testing.assert_allclose(
                level_d.data, level_s.data, atol=TOL, rtol=0
            )

    def test_padded_path_matches_single_graph(self):
        dense, feats = self._graph()
        emb = self._embedder()
        emb.eval()
        single = emb.embed_levels(dense, Tensor(feats))
        padded = emb.embed_levels(
            dense[None], Tensor(feats[None]), np.ones((1, dense.shape[0]))
        )
        for level_s, level_p in zip(single, padded):
            np.testing.assert_allclose(
                level_s.data, level_p.data[0], atol=TOL, rtol=0
            )

    def test_parameter_gradients_flow_through_fused_path(self):
        dense, feats = self._graph()
        emb = self._embedder()
        emb.eval()
        emb.zero_grad()
        total = None
        for level in emb.embed_levels(dense, Tensor(feats)):
            term = (level ** 2.0).sum()
            total = term if total is None else total + term
        total.backward()
        grads = [p.grad for p in emb.parameters()]
        assert all(g is not None for g in grads)
        assert any(float(np.abs(g).max()) > 0 for g in grads)


class TestBufferPoolEquivalence:
    """Pooled backward is bitwise identical to unpooled."""

    def _loss_grads(self, pooled: bool, steps: int = 3):
        from repro.core import build_hap_embedder

        emb = build_hap_embedder(6, 8, [4, 2], _rng(0))
        emb.eval()
        rng = _rng(1)
        dense = np.triu((rng.random((10, 10)) < 0.3).astype(np.float64), 1)
        dense = dense + dense.T
        feats = rng.normal(size=(10, 6))
        pool = BufferPool() if pooled else None
        grads_per_step = []
        for _ in range(steps):
            ctx = buffer_pool(pool) if pool is not None else _null()
            with ctx:
                emb.zero_grad()
                total = None
                for level in emb.embed_levels(dense, Tensor(feats)):
                    term = (level ** 2.0).sum()
                    total = term if total is None else total + term
                total.backward()
                grads_per_step.append(
                    [p.grad.copy() for p in emb.parameters()]
                )
        return grads_per_step, pool

    def test_pooled_gradients_bitwise_equal_unpooled(self):
        unpooled, _ = self._loss_grads(pooled=False)
        pooled, pool = self._loss_grads(pooled=True)
        for step_u, step_p in zip(unpooled, pooled):
            for grad_u, grad_p in zip(step_u, step_p):
                assert np.array_equal(grad_u, grad_p)
        # the pool actually recycled buffers after the first step
        assert pool.stats()["hits"] > 0

    def test_zero_grad_releases_into_pool(self):
        pool = BufferPool()
        x = Tensor(np.ones(4), requires_grad=True)
        with buffer_pool(pool):
            (x * 2.0).sum().backward()
            assert pool.stats()["leased"] > 0
            x.zero_grad()
        assert pool.stats()["free"] > 0
        assert x.grad is None

    def test_release_is_noop_for_foreign_arrays(self):
        pool = BufferPool()
        foreign = np.zeros(8)
        pool.release(foreign)
        assert pool.stats() == {
            "hits": 0, "misses": 0, "released": 0,
            "leased": 0, "free": 0, "free_bytes": 0,
        }

    def test_recycled_buffers_do_not_alias_live_gradients(self):
        """A second backward must not corrupt grads held from the first."""
        pool = BufferPool()
        with buffer_pool(pool):
            x = Tensor(np.arange(4.0), requires_grad=True)
            y = Tensor(np.arange(4.0) + 1.0, requires_grad=True)
            ((x * y) + x).sum().backward()
            first = x.grad.copy()
            # new leaf, new backward: acquires from the pool's free lists
            z = Tensor(np.ones(4), requires_grad=True)
            ((z * 3.0) + z).sum().backward()
            assert np.array_equal(x.grad, first)


class TestUnfusedAttentionLint:
    """tools/lint.py forbids unfused attention pairs in hot paths."""

    @pytest.fixture()
    def lint(self):
        import sys
        from pathlib import Path

        sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
        import lint

        yield lint
        sys.path.pop(0)

    def test_flags_masked_softmax_bmm_pair_in_hot_path(self, lint, tmp_path):
        offender = tmp_path / "src" / "repro" / "pooling" / "thing.py"
        offender.parent.mkdir(parents=True)
        offender.write_text(
            "def forward(scores, mask, h):\n"
            "    probs = masked_softmax(scores, mask, axis=1)\n"
            "    return matmul(probs, h)\n"
        )
        findings = lint.lint_file(offender)
        assert len(findings) == 1
        assert "no-unfused-attention" in findings[0]

    def test_flags_masked_softmax_fed_to_the_matmul_operator(
        self, lint, tmp_path
    ):
        offender = tmp_path / "src" / "repro" / "pooling" / "thing.py"
        offender.parent.mkdir(parents=True)
        offender.write_text(
            "def forward(scores, mask, h):\n"
            "    probs = masked_softmax(scores, mask, axis=1)\n"
            "    return probs @ h\n"
            "def transposed(scores, mask, h):\n"
            "    probs = masked_softmax(scores, mask, axis=1)\n"
            "    return probs.T @ h\n"
            "def inline(scores, mask, h):\n"
            "    return h @ ops.masked_softmax(scores, mask)\n"
        )
        findings = lint.lint_file(offender)
        assert len(findings) == 3
        assert all("no-unfused-attention" in f and "@" in f for f in findings)

    def test_matmul_operator_on_other_operands_passes(self, lint, tmp_path):
        clean = tmp_path / "src" / "repro" / "pooling" / "thing.py"
        clean.parent.mkdir(parents=True)
        clean.write_text(
            "def readout(scores, mask, h, query):\n"
            "    energies = h @ query\n"
            "    attention = masked_softmax(energies, mask, axis=-1)\n"
            "    return reduce(attention, h)\n"
        )
        assert lint.lint_file(clean) == []

    def test_core_package_is_policed_too(self, lint, tmp_path):
        offender = tmp_path / "src" / "repro" / "core" / "thing.py"
        offender.parent.mkdir(parents=True)
        offender.write_text(
            "def forward(scores, h):\n"
            "    return ops.matmul(ops.masked_softmax(scores), h)\n"
        )
        findings = lint.lint_file(offender)
        assert len(findings) == 1
        assert "no-unfused-attention" in findings[0]

    def test_either_call_alone_passes(self, lint, tmp_path):
        clean = tmp_path / "src" / "repro" / "pooling" / "thing.py"
        clean.parent.mkdir(parents=True)
        clean.write_text(
            "def scores_only(scores, mask):\n"
            "    return masked_softmax(scores, mask, axis=1)\n"
            "def product_only(assignment, h):\n"
            "    return matmul(assignment, h)\n"
            "def fused(scores, mask, h):\n"
            "    return matmul_tn(masked_softmax_mean(scores, mask), h)\n"
        )
        assert lint.lint_file(clean) == []

    def test_non_hot_path_packages_are_exempt(self, lint, tmp_path):
        elsewhere = tmp_path / "src" / "repro" / "models" / "thing.py"
        elsewhere.parent.mkdir(parents=True)
        elsewhere.write_text(
            "def forward(scores, mask, h):\n"
            "    return matmul(masked_softmax(scores, mask, axis=1), h)\n"
        )
        assert lint.lint_file(elsewhere) == []

    def test_tests_are_exempt(self, lint, tmp_path):
        exempt = tmp_path / "tests" / "test_thing.py"
        exempt.parent.mkdir(parents=True)
        exempt.write_text(
            "def unfused_reference(scores, mask, h):\n"
            "    return matmul(masked_softmax(scores, mask, axis=1), h)\n"
        )
        assert lint.lint_file(exempt) == []

    def test_hot_path_packages_are_currently_clean(self, lint):
        from pathlib import Path

        src = Path(__file__).resolve().parent.parent / "src" / "repro"
        findings = [
            finding
            for package in ("core", "pooling")
            for finding in lint.lint_paths([src / package])
            if "no-unfused-attention" in finding
        ]
        assert findings == []


def _null():
    import contextlib

    return contextlib.nullcontext()
