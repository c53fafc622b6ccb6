"""Dense-vs-sparse equivalence: a CSR adjacency must reproduce the
dense reference bit-for-bit up to float round-off.

Passing a :class:`~repro.tensor.CSRMatrix` where the dense ``(N, N)``
adjacency would go (docs/sparse.md) replaces every adjacency product
with gather/scatter + segment-reduce kernels
(:func:`~repro.tensor.ops.spmm`, :func:`~repro.tensor.ops.segment_sum`,
:func:`~repro.tensor.ops.scatter_gather`).  For seeded random graphs we
assert that sparse forward outputs and loss *gradients* match the dense
per-graph path within 1e-6 (observed deviations are ~1e-16) for:

- the GCN / GAT / GIN / SAGE layers and stacked encoders,
- the full coarsening module (GCont + MOA + Eq. 17-19, including the
  sparse ``M^T (A M)`` formation),
- the whole ``HierarchicalEmbedder`` — level outputs, every parameter
  gradient and the Gumbel draws, in eval and train mode, with edge
  attributes, on ragged and degenerate graphs,
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
from repro.gnn import GNNEncoder
from repro.graph import Graph, random_connected
from repro.models.classifier import GraphClassifier
from repro.tensor import CSRMatrix, Tensor, check_gradients, spmm
from tests.conftest import slots_view
from tests.gcn_reference import normalize_adjacency, normalize_adjacency_sparse

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
        adjacency, features, _ = slots_view(graphs)
        out_b = encoder(adjacency, Tensor(features))
        for i, g in enumerate(graphs):
            out_s = encoder(g.to_csr(), Tensor(g.features))
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
# Full model equivalence: the hierarchical embedder, where CSR enters
# ---------------------------------------------------------------------------
#: edge-attribute width of the edge-conditioned cases
FE = 3

CONVS = ["gcn", "gat", "gin", "sage"]


def _degenerate_graphs(rng, feat_dim=6):
    """A single node, an edgeless graph, a single edge, and a chain
    plus an isolated node (an empty CSR row)."""
    chain = np.zeros((5, 5))
    for i in range(3):
        chain[i, i + 1] = chain[i + 1, i] = 1.0
    adjacencies = [
        np.zeros((1, 1)),
        np.zeros((4, 4)),
        np.array([[0.0, 1.0], [1.0, 0.0]]),
        chain,
    ]
    return [
        Graph(adj).with_features(rng.normal(size=(len(adj), feat_dim)))
        for adj in adjacencies
    ]


def _with_bonds(graph, rng, identical=False):
    """``graph`` with symmetric one-hot edge attributes on its edges:
    random bond types, or one type everywhere."""
    n = graph.num_nodes
    types = np.zeros((n, n), dtype=np.int64)
    if not identical:
        types = np.triu(rng.integers(0, FE, size=(n, n)), 1)
        types = types + types.T
    on_edges = (graph.adjacency != 0)[..., None]
    return graph.with_edge_features(np.eye(FE)[types] * on_edges)


class _RecordedDraws:
    """Stands in for the embedder's generator, keeping every draw."""

    def __init__(self, rng):
        self.rng = rng
        self.draws = []

    def random(self, shape):
        self.draws.append(self.rng.random(shape))
        return self.draws[-1]


class TestFullModelEquivalence:
    """``HierarchicalEmbedder.embed_levels`` on a level-0 CSR adjacency
    against the dense one — the only place a CSR adjacency enters the
    model, since every coarsened level is a small dense graph.

    One embedder per conv runs both layouts from the same generator
    state, in eval mode and in train mode, on ragged and degenerate
    graphs.  GAT, GIN and SAGE also condition on edge attributes, given
    in the matching layout: dense ``(N, N, Fe)`` or the CSR-aligned
    ``(nnz, Fe)`` rows of ``edge_feature_data()``.  The level outputs
    and every parameter gradient must agree, and in train mode both
    runs must draw the same Gumbel noise (Eq. 19) and leave the
    generator in the same state."""

    @staticmethod
    def _graphs(rng, conv):
        graphs = _ragged_batch(rng) + _degenerate_graphs(rng)
        if conv == "gcn":  # GCN takes no edge attributes
            return graphs
        bonded = [_with_bonds(g, rng) for g in graphs]
        return bonded + [_with_bonds(graphs[-1], rng, identical=True)]

    @staticmethod
    def _embedder(conv):
        rng = np.random.default_rng(11)
        embedder = build_hap_embedder(
            6, 8, [4, 2], rng, conv=conv, edge_features=0 if conv == "gcn" else FE
        )
        recorder = _RecordedDraws(rng)
        for coarsening in embedder.coarsenings:
            coarsening.rng = recorder
        return embedder, recorder

    @staticmethod
    def _run(embedder, recorder, state, graph, layout):
        """Levels, parameter gradients, the draws and the generator
        state after one forward and backward from ``state``."""
        recorder.rng.bit_generator.state = state
        recorder.draws = []
        if layout == "csr":
            adjacency = graph.to_csr()
            edge_attr = None
            if graph.edge_features is not None:
                edge_attr = graph.edge_feature_data()
        else:
            adjacency, edge_attr = graph.adjacency, graph.edge_features
        embedder.zero_grad()
        levels = embedder.embed_levels(
            adjacency, Tensor(graph.features), edge_attr=edge_attr
        )
        weights = np.random.default_rng(5).normal(size=(len(levels), 8))
        loss = sum((level * Tensor(w)).sum() for level, w in zip(levels, weights))
        aux = embedder.auxiliary_loss()
        (loss if aux is None else loss + aux).backward()
        grads = {
            name: None if p.grad is None else p.grad.copy()
            for name, p in embedder.named_parameters()
        }
        return (
            [level.data.copy() for level in levels],
            grads,
            recorder.draws,
            recorder.rng.bit_generator.state,
        )

    def _both_layouts(self, conv, training):
        """Dense and CSR runs of every graph, from one generator state."""
        embedder, recorder = self._embedder(conv)
        embedder.train(training)
        state = recorder.rng.bit_generator.state
        for g in self._graphs(np.random.default_rng(3), conv):
            yield g, (
                self._run(embedder, recorder, state, g, "dense"),
                self._run(embedder, recorder, state, g, "csr"),
            )

    @pytest.mark.parametrize("conv", CONVS)
    def test_embed_levels_match_dense(self, conv):
        for training in (False, True):
            for g, (dense, csr) in self._both_layouts(conv, training):
                case = (conv, training, g.num_nodes)
                levels_d, _, draws_d, state_d = dense
                levels_s, _, draws_s, state_s = csr
                for level_d, level_s in zip(levels_d, levels_s):
                    assert np.abs(level_d - level_s).max() < TOL, case
                # eval mode draws nothing; train mode one array per forward
                assert len(draws_d) == len(draws_s) == int(training), case
                for draw_d, draw_s in zip(draws_d, draws_s):
                    np.testing.assert_array_equal(draw_d, draw_s)
                assert state_d == state_s, case

    def test_loss_and_gradients_match_dense(self):
        for conv in CONVS:
            for training in (False, True):
                for g, (dense, csr) in self._both_layouts(conv, training):
                    grads_d, grads_s = dense[1], csr[1]
                    assert grads_d.keys() == grads_s.keys()
                    assert any(grad is not None for grad in grads_d.values())
                    for name, grad_d in grads_d.items():
                        case = (conv, training, g.num_nodes, name)
                        if grad_d is None:
                            assert grads_s[name] is None, case
                            continue
                        dev = np.abs(grad_d - grads_s[name]).max()
                        assert dev < TOL, (case, dev)

    def test_classifier_takes_no_backend(self):
        """A CSR adjacency is an input type of the embedder, not a
        classifier option."""
        emb = build_hap_embedder(6, 8, [4, 2], np.random.default_rng(0))
        with pytest.raises(TypeError):
            GraphClassifier(emb, 2, np.random.default_rng(1), backend="sparse")


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
    @given(seed=seeds, n=sizes, diagonal=st.booleans())
    def test_self_loops_match_the_sorted_merge(self, seed, n, diagonal):
        """With or without stored diagonal entries, ``with_self_loops``
        builds exactly the arrays ``from_coo`` sorts and merges."""
        dense, _ = _random_sparse(seed, n)
        if not diagonal:
            np.fill_diagonal(dense, 0.0)
        csr = CSRMatrix.from_dense(dense)
        loops = np.arange(n)
        merged = CSRMatrix.from_coo(
            np.concatenate([csr.row_ids, loops]),
            np.concatenate([csr.indices, loops]),
            np.concatenate([csr.data, np.full(n, 0.5)]),
            csr.shape,
        )
        out = csr.with_self_loops(0.5)
        for field in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(out, field), getattr(merged, field))

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

    def test_embedder_gradcheck_sparse(self, rng):
        g = random_connected(8, 0.4, rng)
        x = Tensor(rng.normal(size=(8, 5)), requires_grad=True)
        emb = build_hap_embedder(5, 4, [3, 2], np.random.default_rng(2))
        emb.eval()

        def loss():
            levels = emb.embed_levels(g.to_csr(), x)
            return sum((level * level).sum() for level in levels)

        check_gradients(loss, [x, emb.encoder0.layers[0].weight])
