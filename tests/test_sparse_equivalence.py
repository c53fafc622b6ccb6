"""Dense-vs-sparse equivalence: the CSR execution backend must
reproduce the dense reference bit-for-bit up to float round-off.

The sparse backend (docs/sparse.md) replaces every dense ``(N, N)``
adjacency product with gather/scatter + segment-reduce kernels
(:func:`~repro.tensor.ops.spmm`, :func:`~repro.tensor.ops.segment_sum`,
:func:`~repro.tensor.ops.scatter_gather`).  For seeded random graphs we
assert that sparse forward outputs and loss *gradients* match the dense
per-graph path within 1e-6 (observed deviations are ~1e-16) for:

- the GCN / GAT / GIN / SAGE layers and stacked encoders,
- the full coarsening module (GCont + MOA + Eq. 17-19, including the
  sparse ``M^T (A M)`` formation),
- ``HierarchicalEmbedder`` level readouts and the full
  ``GraphClassifier`` loss, parameter gradients and predictions,
- the padded-batch path (sparse per-example outputs equal the valid
  rows of the dense padded batch).

Property-based tests (hypothesis) pin the CSR data structure itself:
round-trip, COO duplicate summing, transpose, self-loop accumulation,
and ``spmm == dense @`` over random sparse matrices.  Finite-difference
gradchecks run the sparse pipeline end to end.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import GraphCoarsening, build_hap_embedder
from repro.data import csr_graphs, pad_graphs
from repro.gnn import GNNEncoder
from repro.gnn.layers import normalize_adjacency, normalize_adjacency_sparse
from repro.graph import random_connected
from repro.models.classifier import GraphClassifier
from repro.tensor import CSRMatrix, Tensor, check_gradients, spmm

pytestmark = pytest.mark.sparse

TOL = 1e-6

#: ragged node counts shared with tests/test_batched_equivalence.py
RAGGED_SIZES = (3, 7, 12, 5, 9)

seeds = st.integers(min_value=0, max_value=10_000)
sizes = st.integers(min_value=1, max_value=12)


def _ragged_batch(rng, feat_dim=6, sizes=RAGGED_SIZES):
    graphs = []
    for n in sizes:
        g = random_connected(n, 0.4, rng)
        graphs.append(g.with_features(rng.normal(size=(n, feat_dim))))
    return graphs


def _random_sparse(seed: int, n: int, m: int | None = None, density: float = 0.3):
    rng = np.random.default_rng(seed)
    m = n if m is None else m
    dense = rng.normal(size=(n, m)) * (rng.random((n, m)) < density)
    return dense, CSRMatrix.from_dense(dense)


def _param_grads(module):
    return {name: p.grad.copy() for name, p in module.named_parameters()}


# ---------------------------------------------------------------------------
# Layer and encoder equivalence
# ---------------------------------------------------------------------------
class TestLayerEquivalence:
    @pytest.mark.parametrize("conv", ["gcn", "gat", "gin", "sage"])
    def test_outputs_and_gradients_match_dense(self, rng, conv):
        for g in _ragged_batch(rng):
            encoder = GNNEncoder([6, 8, 8], np.random.default_rng(0), conv=conv)
            out_d = encoder(g.adjacency, Tensor(g.features))
            out_s = encoder(g.to_csr(), Tensor(g.features))
            dev = np.abs(out_d.data - out_s.data).max()
            assert dev < TOL, (conv, g.num_nodes, dev)

            out_d.sum().backward()
            grads_d = _param_grads(encoder)
            for p in encoder.parameters():
                p.grad = None
            out_s.sum().backward()
            grads_s = _param_grads(encoder)
            for name in grads_d:
                gdev = np.abs(grads_d[name] - grads_s[name]).max()
                assert gdev < TOL, (conv, name, gdev)

    @pytest.mark.parametrize("conv", ["gcn", "gat", "gin", "sage"])
    def test_sparse_matches_padded_batch_valid_rows(self, rng, conv):
        graphs = _ragged_batch(rng)
        encoder = GNNEncoder([6, 8, 8], np.random.default_rng(0), conv=conv)
        batch = pad_graphs(graphs)
        out_b = encoder(batch.adjacency, Tensor(batch.features))
        for i, (g, csr) in enumerate(zip(graphs, csr_graphs(graphs))):
            out_s = encoder(csr, Tensor(g.features))
            dev = np.abs(out_s.data - out_b.data[i, : g.num_nodes]).max()
            assert dev < TOL, (conv, i, dev)

    def test_normalize_adjacency_sparse_matches_dense(self, rng):
        for g in _ragged_batch(rng):
            dense = normalize_adjacency(g.adjacency).data
            sparse = normalize_adjacency_sparse(g.to_csr()).to_dense()
            np.testing.assert_allclose(sparse, dense, rtol=0, atol=TOL)


# ---------------------------------------------------------------------------
# Coarsening (GCont + MOA + Eq. 17-19) equivalence
# ---------------------------------------------------------------------------
class TestCoarseningEquivalence:
    @pytest.mark.parametrize("soft_sampling", [False, True])
    def test_coarsen_matches_dense(self, rng, soft_sampling):
        module = GraphCoarsening(
            6, 3, np.random.default_rng(0), soft_sampling=soft_sampling
        )
        module.eval()  # deterministic tempered softmax, no gumbel noise
        for g in _ragged_batch(rng):
            dense = (g.adjacency, Tensor(g.features))
            sparse = (g.to_csr(), Tensor(g.features))
            adj_d, h_d, _ = module(*dense)
            adj_s, h_s, _ = module(*sparse)
            m_d, m_s = module.select(*dense).s, module.select(*sparse).s
            assert np.abs(adj_d.data - adj_s.data).max() < TOL
            assert np.abs(h_d.data - h_s.data).max() < TOL
            assert np.abs(m_d.data - m_s.data).max() < TOL

    def test_coarsen_gradients_match_dense(self, rng):
        g = _ragged_batch(rng)[1]
        module = GraphCoarsening(6, 3, np.random.default_rng(0))
        module.eval()
        adj_d, h_d, _ = module(g.adjacency, Tensor(g.features))
        (adj_d.sum() + h_d.sum()).backward()
        grads_d = _param_grads(module)
        for p in module.parameters():
            p.grad = None
        adj_s, h_s, _ = module(g.to_csr(), Tensor(g.features))
        (adj_s.sum() + h_s.sum()).backward()
        grads_s = _param_grads(module)
        for name in grads_d:
            dev = np.abs(grads_d[name] - grads_s[name]).max()
            assert dev < TOL, (name, dev)


# ---------------------------------------------------------------------------
# Full model equivalence
# ---------------------------------------------------------------------------
class TestFullModelEquivalence:
    def _models(self, seed, conv="gcn", **kwargs):
        """A dense and a sparse classifier with identical parameters."""
        models = []
        for backend in ("dense", "sparse"):
            emb = build_hap_embedder(
                6, 8, [4, 2], np.random.default_rng(seed), conv=conv, **kwargs
            )
            models.append(
                GraphClassifier(emb, 2, np.random.default_rng(seed + 1),
                                backend=backend)
            )
        return models

    @pytest.mark.parametrize("conv", ["gcn", "gat"])
    def test_embed_levels_match_dense(self, rng, conv):
        graphs = _ragged_batch(rng)
        dense_model, sparse_model = self._models(11, conv=conv)
        dense_model.eval()
        sparse_model.eval()
        for g in graphs:
            levels_d = dense_model.embedder.embed_levels(
                g.adjacency, Tensor(g.features)
            )
            levels_s = sparse_model.embedder.embed_levels(
                g.to_csr(), Tensor(g.features)
            )
            for k, (lv_d, lv_s) in enumerate(zip(levels_d, levels_s)):
                dev = np.abs(lv_d.data - lv_s.data).max()
                assert dev < TOL, (conv, k, dev)

    def test_loss_and_gradients_match_dense(self, rng):
        graphs = [g.with_label(int(i % 2)) for i, g in enumerate(_ragged_batch(rng))]
        dense_model, sparse_model = self._models(21, conv="gat")
        dense_model.eval()
        sparse_model.eval()

        loss_d = dense_model.batch_loss(graphs)
        loss_d.backward()
        loss_s = sparse_model.batch_loss(graphs)
        loss_s.backward()

        assert abs(float(loss_d.data) - float(loss_s.data)) < TOL
        for (name, p_d), (_, p_s) in zip(
            dense_model.named_parameters(), sparse_model.named_parameters()
        ):
            assert p_d.grad is not None and p_s.grad is not None, name
            dev = np.abs(p_d.grad - p_s.grad).max()
            assert dev < TOL, (name, dev)

    def test_predictions_and_embeddings_match_dense(self, rng):
        graphs = [g.with_label(0) for g in _ragged_batch(rng)]
        dense_model, sparse_model = self._models(41)
        dense_model.eval()
        sparse_model.eval()
        np.testing.assert_array_equal(
            dense_model.predict(graphs), sparse_model.predict(graphs)
        )
        for g in graphs:
            assert dense_model.predict(g) == sparse_model.predict(g)
            np.testing.assert_allclose(
                dense_model.embed(g), sparse_model.embed(g), rtol=0, atol=TOL
            )

    def test_sparse_backend_ignores_dense_padded_batch(self, rng):
        """An explicit PaddedBatch is already dense; the sparse model
        must still produce the dense padded result for it."""
        graphs = [g.with_label(int(i % 2)) for i, g in enumerate(_ragged_batch(rng))]
        dense_model, sparse_model = self._models(51)
        dense_model.eval()
        sparse_model.eval()
        batch = pad_graphs(graphs)
        np.testing.assert_allclose(
            dense_model.logits_batched(batch).data,
            sparse_model.logits_batched(batch).data,
            rtol=0,
            atol=TOL,
        )


# ---------------------------------------------------------------------------
# CSR data structure properties (hypothesis)
# ---------------------------------------------------------------------------
class TestCSRProperties:
    @settings(max_examples=40, deadline=None)
    @given(seed=seeds, n=sizes, m=sizes)
    def test_dense_round_trip(self, seed, n, m):
        dense, csr = _random_sparse(seed, n, m)
        np.testing.assert_array_equal(csr.to_dense(), dense)
        assert csr.nnz == np.count_nonzero(dense)

    @settings(max_examples=40, deadline=None)
    @given(seed=seeds, n=sizes)
    def test_from_coo_sums_duplicates(self, seed, n):
        rng = np.random.default_rng(seed)
        e = int(rng.integers(1, 4 * n + 1))
        rows = rng.integers(0, n, size=e)
        cols = rng.integers(0, n, size=e)
        vals = rng.normal(size=e)
        dense = np.zeros((n, n))
        np.add.at(dense, (rows, cols), vals)
        csr = CSRMatrix.from_coo(rows, cols, vals, (n, n))
        np.testing.assert_allclose(csr.to_dense(), dense, rtol=0, atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(seed=seeds, n=sizes, m=sizes)
    def test_transpose_matches_dense(self, seed, n, m):
        dense, csr = _random_sparse(seed, n, m)
        np.testing.assert_allclose(
            csr.transpose().to_dense(), dense.T, rtol=0, atol=1e-12
        )

    @settings(max_examples=40, deadline=None)
    @given(seed=seeds, n=sizes)
    def test_self_loops_accumulate_like_dense_eye(self, seed, n):
        dense, csr = _random_sparse(seed, n)
        np.testing.assert_allclose(
            csr.with_self_loops().to_dense(), dense + np.eye(n), rtol=0, atol=1e-12
        )

    @settings(max_examples=40, deadline=None)
    @given(seed=seeds, n=sizes, m=sizes, f=st.integers(min_value=1, max_value=5))
    def test_spmm_matches_dense_matmul(self, seed, n, m, f):
        dense, csr = _random_sparse(seed, n, m)
        rng = np.random.default_rng(seed + 1)
        x = rng.normal(size=(m, f))
        np.testing.assert_allclose(
            spmm(csr, Tensor(x)).data, dense @ x, rtol=0, atol=1e-10
        )

    @settings(max_examples=20, deadline=None)
    @given(seed=seeds, n=st.integers(min_value=3, max_value=12))
    def test_graph_csr_normalization_matches_dense(self, seed, n):
        rng = np.random.default_rng(seed)
        g = random_connected(n, 0.4, rng)
        dense = normalize_adjacency(g.adjacency).data
        sparse = normalize_adjacency_sparse(g.to_csr()).to_dense()
        np.testing.assert_allclose(sparse, dense, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# Finite-difference gradchecks through the sparse pipeline
# ---------------------------------------------------------------------------
class TestSparseGradcheck:
    def test_spmm_pipeline_gradcheck(self, rng):
        g = random_connected(7, 0.5, rng)
        csr = g.to_csr()
        x = Tensor(rng.normal(size=(7, 3)), requires_grad=True)
        check_gradients(lambda: (spmm(csr, x) ** 2).sum(), [x])

    def test_gcn_sparse_feature_gradcheck(self, rng):
        from repro.gnn.layers import GCNLayer

        g = random_connected(6, 0.5, rng)
        layer = GCNLayer(4, 3, np.random.default_rng(0), activation="tanh")
        x = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
        check_gradients(
            lambda: (layer(g.to_csr(), x) ** 2).sum(),
            [x, layer.weight, layer.bias],
        )

    def test_gat_sparse_parameter_gradcheck(self, rng):
        from repro.gnn.layers import GATLayer

        g = random_connected(6, 0.5, rng)
        layer = GATLayer(4, 3, np.random.default_rng(0), activation="tanh")
        x = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
        check_gradients(
            lambda: (layer(g.to_csr(), x) ** 2).sum(),
            [x, layer.weight, layer.att_src, layer.att_dst, layer.bias],
        )

    def test_classifier_loss_gradcheck_sparse(self, rng):
        g = random_connected(8, 0.4, rng).with_features(
            rng.normal(size=(8, 5))
        ).with_label(1)
        emb = build_hap_embedder(5, 6, [3, 2], np.random.default_rng(2))
        model = GraphClassifier(emb, 2, np.random.default_rng(3), backend="sparse")
        model.eval()
        check_gradients(
            lambda: model.loss(g), [model.fc1.weight, model.fc2.weight]
        )
