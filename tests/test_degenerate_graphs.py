"""Robustness on degenerate inputs: tiny and edgeless graphs.

Every pooling operator, encoder and HAP itself must handle 1-node,
2-node and edgeless graphs without crashing — real datasets contain
such graphs, and coarsened graphs can collapse to one cluster.  The
CSR layer paths (docs/sparse.md) must survive the same degenerate
shapes: empty edge sets compress to zero stored entries, isolated
nodes become empty CSR rows, and explicit diagonal entries (self-loops
are legal in a raw CSRMatrix, unlike in :class:`Graph`) must accumulate
rather than duplicate.
"""

import numpy as np
import pytest

from repro.core import GraphCoarsening, build_hap_embedder
from repro.gnn import GNNEncoder
from repro.graph import CSRMatrix, Graph
from repro.pooling import (
    ASAP,
    AttPoolGlobal,
    AttPoolLocal,
    DiffPool,
    GPool,
    GatedAttPool,
    MaxPool,
    MeanAttPool,
    MeanPool,
    MinCutPool,
    SAGPool,
    Set2Set,
    SortPooling,
    StructPool,
    SumPool,
)
from repro.tensor import Tensor


def _cases(rng):
    return [
        ("single node", np.zeros((1, 1)), rng.normal(size=(1, 4))),
        ("two nodes no edge", np.zeros((2, 2)), rng.normal(size=(2, 4))),
        (
            "two nodes one edge",
            np.array([[0.0, 1.0], [1.0, 0.0]]),
            rng.normal(size=(2, 4)),
        ),
        ("edgeless", np.zeros((5, 5)), rng.normal(size=(5, 4))),
    ]


class TestReadoutsOnDegenerateGraphs:
    @pytest.mark.parametrize("pool_name", ["sum", "mean", "max", "meanatt", "gated", "set2set", "sort"])
    def test_readouts_run(self, pool_name, rng):
        pools = {
            "sum": SumPool(4),
            "mean": MeanPool(4),
            "max": MaxPool(4),
            "meanatt": MeanAttPool(4, rng),
            "gated": GatedAttPool(4, rng),
            "set2set": Set2Set(4, rng, steps=2),
            "sort": SortPooling(4, k=3),
        }
        pool = pools[pool_name]
        for name, adj, feats in _cases(rng):
            out = pool(adj, Tensor(feats))
            assert np.all(np.isfinite(out.data)), f"{pool_name} on {name}"


class TestCoarseningsOnDegenerateGraphs:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda rng: GPool(4, rng, ratio=0.5),
            lambda rng: SAGPool(4, rng, ratio=0.5),
            lambda rng: AttPoolGlobal(4, rng, ratio=0.5),
            lambda rng: AttPoolLocal(4, rng, ratio=0.5),
            lambda rng: ASAP(4, rng, ratio=0.5),
            lambda rng: DiffPool(4, 2, rng),
            lambda rng: StructPool(4, 2, rng),
            lambda rng: MinCutPool(4, 2, rng),
            lambda rng: GraphCoarsening(4, 2, rng),
        ],
    )
    def test_coarsenings_run(self, factory, rng):
        op = factory(rng)
        op.eval()
        for name, adj, feats in _cases(rng):
            result = op(adj, Tensor(feats))
            adj2, h2 = result[0], result[1]
            assert np.all(np.isfinite(h2.data)), name
            assert np.all(np.isfinite(adj2.data)), name
            assert h2.shape[0] >= 1


class TestModelsOnDegenerateGraphs:
    def test_encoder_on_single_node(self, rng):
        enc = GNNEncoder([4, 6], rng)
        out = enc(np.zeros((1, 1)), Tensor(rng.normal(size=(1, 4))))
        assert out.shape == (1, 6)

    def test_hap_embedder_on_tiny_graphs(self, rng):
        embedder = build_hap_embedder(4, 6, [3, 1], rng)
        embedder.eval()
        for name, adj, feats in _cases(rng):
            out = embedder(adj, Tensor(feats))
            assert out.shape == (6,)
            assert np.all(np.isfinite(out.data)), name

    def test_classifier_on_single_node_graph(self, rng):
        from repro.models import zoo

        g = Graph(np.zeros((1, 1)), label=0).with_features(rng.normal(size=(1, 4)))
        for method in ("SumPool", "HAP", "SAGPool"):
            model = zoo.make_classifier(method, 4, 2, rng, hidden=6,
                                        cluster_sizes=(2, 1))
            loss = model.loss(g)
            loss.backward()
            assert model.predict(g) in (0, 1)


@pytest.mark.sparse
class TestSparseBackendOnDegenerateGraphs:
    """The CSR execution paths on the same degenerate shapes, checked
    *against the dense reference* — surviving is not enough, the two
    layouts must agree (tests/test_sparse_equivalence.py pins the
    healthy-graph cases; these are the pathological ones)."""

    @pytest.mark.parametrize("conv", ["gcn", "gat", "gin", "sage"])
    def test_encoders_match_dense_on_degenerate_cases(self, rng, conv):
        enc = GNNEncoder([4, 6], np.random.default_rng(0), conv=conv)
        for name, adj, feats in _cases(rng):
            out_d = enc(adj, Tensor(feats))
            out_s = enc(CSRMatrix.from_dense(adj), Tensor(feats))
            dev = np.abs(out_d.data - out_s.data).max()
            assert dev < 1e-6, (conv, name, dev)
            assert np.all(np.isfinite(out_s.data)), (conv, name)

    def test_isolated_node_case_matches_dense(self, rng):
        # A graph with one edge plus an isolated node: the isolated
        # node's CSR row stores no entries at all.
        adj = np.zeros((3, 3))
        adj[0, 1] = adj[1, 0] = 1.0
        csr = CSRMatrix.from_dense(adj)
        assert csr.nnz == 2
        enc = GNNEncoder([4, 5], np.random.default_rng(1), conv="gcn")
        feats = rng.normal(size=(3, 4))
        dev = np.abs(
            enc(adj, Tensor(feats)).data - enc(csr, Tensor(feats)).data
        ).max()
        assert dev < 1e-6

    def test_coarsening_on_degenerate_csr(self, rng):
        op = GraphCoarsening(4, 2, np.random.default_rng(0))
        op.eval()
        for name, adj, feats in _cases(rng):
            adj_d, h_d, _ = op(adj, Tensor(feats))
            adj_s, h_s, _ = op(CSRMatrix.from_dense(adj), Tensor(feats))
            assert np.abs(adj_d.data - adj_s.data).max() < 1e-6, name
            assert np.abs(h_d.data - h_s.data).max() < 1e-6, name

    def test_hap_embedder_on_degenerate_csr(self, rng):
        embedder = build_hap_embedder(4, 6, [3, 1], np.random.default_rng(0))
        embedder.eval()
        for name, adj, feats in _cases(rng):
            out_d = embedder(adj, Tensor(feats))
            out_s = embedder(CSRMatrix.from_dense(adj), Tensor(feats))
            assert out_s.shape == (6,)
            assert np.abs(out_d.data - out_s.data).max() < 1e-6, name

    def test_explicit_self_loops_in_raw_csr(self, rng):
        # Graph forbids diagonal entries, but a raw CSRMatrix may carry
        # them (e.g. coarsened structures); with_self_loops must
        # accumulate onto the existing diagonal exactly like dense + I.
        dense = np.array([[2.0, 1.0], [1.0, 0.0]])
        csr = CSRMatrix.from_dense(dense)
        np.testing.assert_allclose(
            csr.with_self_loops().to_dense(), dense + np.eye(2), atol=1e-12
        )
        # and the layers accept such a matrix without densifying
        from repro.gnn.layers import GCNLayer

        layer = GCNLayer(3, 2, np.random.default_rng(2))
        out = layer(csr, Tensor(rng.normal(size=(2, 3))))
        assert np.all(np.isfinite(out.data))

    def test_empty_edge_set_csr_has_zero_nnz(self, rng):
        csr = CSRMatrix.from_dense(np.zeros((5, 5)))
        assert csr.nnz == 0
        from repro.tensor import spmm

        out = spmm(csr, Tensor(rng.normal(size=(5, 3))))
        np.testing.assert_array_equal(out.data, np.zeros((5, 3)))


@pytest.mark.molecular
class TestEdgeFeaturesOnDegenerateGraphs:
    """Bond features through the pathological shapes: an edgeless graph
    (no bond carries any feature), a single-edge graph, and a chain
    whose bonds are all the identical type — each through the
    per-graph and padded-batch execution paths, which must agree (a CSR
    level 0 on such shapes: tests/test_sparse_equivalence.py)."""

    FE = 3

    def _graphs(self, rng):
        single = [0.0, 1.0, 0.0]
        empty = Graph.from_edges(
            4, [], edge_features={}, num_edge_features=self.FE
        )
        one_edge = Graph.from_edges(
            2, [(0, 1)], edge_features={(0, 1): single},
            num_edge_features=self.FE,
        )
        chain_edges = [(0, 1), (1, 2), (2, 3)]
        identical = Graph.from_edges(
            4, chain_edges,
            edge_features={e: [1.0, 0.0, 0.0] for e in chain_edges},
            num_edge_features=self.FE,
        )
        return [
            g.with_features(rng.normal(size=(g.num_nodes, 4))).with_target(0.5)
            for g in (empty, one_edge, identical)
        ]

    def _model(self, conv):
        from repro.models import zoo

        model = zoo.make_classifier(
            "HAP", 4, 0, np.random.default_rng(0),
            hidden=6, cluster_sizes=(3, 1), conv=conv,
            task="regression", edge_features=self.FE, soft_sampling=False,
        )
        model.eval()
        return model

    @pytest.mark.parametrize("conv", ["gin", "sage", "gat"])
    def test_dense_and_padded_agree(self, rng, conv):
        graphs = self._graphs(rng)
        model = self._model(conv)
        dense = np.array([model.predict(g) for g in graphs])
        assert np.all(np.isfinite(dense)), conv
        padded = np.asarray(model.predict(graphs))
        assert np.abs(dense - padded).max() < 1e-6, conv

    def test_empty_edge_set_yields_empty_sparse_edge_data(self, rng):
        empty = self._graphs(rng)[0]
        assert empty.num_edge_features == self.FE
        assert empty.edge_feature_data().shape == (0, self.FE)

    @pytest.mark.parametrize("conv", ["gin", "sage", "gat"])
    def test_losses_backprop_on_degenerate_edge_features(self, rng, conv):
        graphs = self._graphs(rng)
        model = self._model(conv)
        for graph in graphs:
            model.zero_grad()
            loss = model.loss(graph)
            loss.backward()
            assert np.isfinite(loss.data), conv

    def test_padded_batch_carries_degenerate_edge_features(self, rng):
        from repro.data import pad_graphs

        graphs = self._graphs(rng)
        batch = pad_graphs(graphs)
        n = batch.adjacency.shape[1]
        assert batch.edge_features.shape == (len(graphs), n, n, self.FE)
        # the edgeless graph's slab is all zeros
        assert np.all(batch.edge_features[0] == 0.0)
