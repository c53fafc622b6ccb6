"""Hierarchical pooling operators: Top-K family, DiffPool, ASAP,
StructPool, MinCutPool."""

import numpy as np
import pytest

from repro.graph import connected_components, Graph, path_graph
from repro.pooling import (
    ASAP,
    AttPoolGlobal,
    AttPoolLocal,
    DiffPool,
    GPool,
    MeanAttPoolCoarsening,
    MeanPoolCoarsening,
    MinCutPool,
    SAGPool,
    StructPool,
)
from repro.pooling.topk import _keep_count
from repro.tensor import Tensor


@pytest.fixture
def graph_and_features(rng, small_graph):
    return small_graph.adjacency, Tensor(small_graph.features)


class TestKeepCount:
    def test_ceil_semantics(self):
        assert _keep_count(10, 0.5) == 5
        assert _keep_count(9, 0.5) == 5
        assert _keep_count(1, 0.5) == 1
        assert _keep_count(4, 1.0) == 4


class TestTopKFamily:
    @pytest.mark.parametrize("cls", [GPool, SAGPool, AttPoolGlobal, AttPoolLocal])
    def test_output_sizes(self, cls, rng, graph_and_features):
        adj, h = graph_and_features
        op = cls(5, rng, ratio=0.5)
        adj2, h2, _ = op(adj, h)
        assert h2.shape == (4, 5)
        assert adj2.shape == (4, 4)

    def test_ratio_validation(self, rng):
        with pytest.raises(ValueError):
            GPool(5, rng, ratio=0.0)
        with pytest.raises(ValueError):
            GPool(5, rng, ratio=1.5)

    def test_induced_subgraph_adjacency(self, rng):
        # Chain 0-1-2-3; scores should select a subset and keep exactly
        # the edges among the survivors.
        g = path_graph(4)
        h = Tensor(np.array([[3.0], [0.1], [2.9], [0.2]]))
        op = GPool(1, rng, ratio=0.5)
        op.projection.data = np.array([1.0])
        adj2, h2, _ = op(g.adjacency, h)
        # Top-2 by projection: nodes 0 and 2, which are NOT adjacent ->
        # the coarse graph is disconnected (the failure mode the paper
        # points out for Top-K pooling).
        assert adj2.shape == (2, 2)
        assert np.all(adj2.data == 0)

    def test_gating_passes_gradient_to_scores(self, rng, graph_and_features):
        adj, h = graph_and_features
        op = SAGPool(5, rng, ratio=0.5)
        _, h2, _ = op(adj, h)
        h2.sum().backward()
        assert op.score_gcn.weight.grad is not None

    def test_attpool_local_prefers_high_degree(self, rng):
        # Equal features: only the degree term differentiates nodes.
        from repro.graph import star_graph

        g = star_graph(6)
        h = Tensor(np.ones((6, 3)))
        op = AttPoolLocal(3, rng, ratio=0.2)
        op.att.data = np.zeros(3)
        scores = op.scores(g.adjacency, h)
        assert int(np.argmax(scores.data)) == 0  # the hub

    def test_deterministic_given_weights(self, rng, graph_and_features):
        adj, h = graph_and_features
        op = GPool(5, rng, ratio=0.5)
        a1, h1, _ = op(adj, h)
        a2, h2, _ = op(adj, h)
        np.testing.assert_array_equal(h1.data, h2.data)


class TestDiffPool:
    def test_assignment_rows_sum_to_one(self, rng, graph_and_features):
        adj, h = graph_and_features
        op = DiffPool(5, 3, rng)
        s = op.assignment(adj, h)
        np.testing.assert_allclose(s.data.sum(axis=1), np.ones(8))

    def test_coarsen_shapes(self, rng, graph_and_features):
        adj, h = graph_and_features
        adj2, h2, _ = DiffPool(5, 3, rng)(adj, h)
        assert adj2.shape == (3, 3) and h2.shape == (3, 5)

    def test_auxiliary_loss_present_and_scalar(self, rng, graph_and_features):
        adj, h = graph_and_features
        op = DiffPool(5, 3, rng)
        op(adj, h)
        aux = op.auxiliary_loss()
        assert aux is not None and aux.size == 1

    def test_cluster_count_validation(self, rng):
        with pytest.raises(ValueError):
            DiffPool(5, 0, rng)

    def test_coarse_adjacency_formula(self, rng, graph_and_features):
        adj, h = graph_and_features
        op = DiffPool(5, 3, rng)
        s = op.assignment(adj, h).data
        z = op.embed_gnn(adj, h).data
        adj2, h2, _ = op(adj, h)
        np.testing.assert_allclose(adj2.data, s.T @ adj @ s, atol=1e-10)
        np.testing.assert_allclose(h2.data, s.T @ z, atol=1e-10)


class TestASAP:
    def test_shapes(self, rng, graph_and_features):
        adj, h = graph_and_features
        adj2, h2, _ = ASAP(5, rng, ratio=0.5)(adj, h)
        assert h2.shape == (4, 5) and adj2.shape == (4, 4)

    def test_ratio_validation(self, rng):
        with pytest.raises(ValueError):
            ASAP(5, rng, ratio=0.0)

    def test_all_parameters_get_gradients(self, rng, graph_and_features):
        adj, h = graph_and_features
        op = ASAP(5, rng, ratio=0.5)
        adj2, h2, _ = op(adj, h)
        (h2.sum() + adj2.sum()).backward()
        for name, p in op.named_parameters():
            assert p.grad is not None, name


class TestStructPool:
    def test_assignment_is_distribution(self, rng, graph_and_features):
        adj, h = graph_and_features
        q = StructPool(5, 3, rng).assignment(adj, h)
        np.testing.assert_allclose(q.data.sum(axis=1), np.ones(8))

    def test_iterations_refine(self, rng, graph_and_features):
        adj, h = graph_and_features
        zero = StructPool(5, 3, rng, iterations=0)
        three = StructPool(5, 3, rng, iterations=3)
        three.load_state_dict(
            {k.replace("unary", "unary"): v for k, v in zero.state_dict().items()}
        )
        q0 = zero.assignment(adj, h).data
        q3 = three.assignment(adj, h).data
        assert not np.allclose(q0, q3)  # pairwise smoothing changed marginals

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            StructPool(5, 0, rng)
        with pytest.raises(ValueError):
            StructPool(5, 2, rng, iterations=-1)


class TestMinCutPool:
    def test_shapes_and_zero_diagonal(self, rng, graph_and_features):
        adj, h = graph_and_features
        op = MinCutPool(5, 3, rng)
        adj2, h2, _ = op(adj, h)
        assert adj2.shape == (3, 3)
        np.testing.assert_allclose(np.diag(adj2.data), np.zeros(3))

    def test_auxiliary_loss_bounded(self, rng, graph_and_features):
        adj, h = graph_and_features
        op = MinCutPool(5, 3, rng)
        op(adj, h)
        aux = float(op.auxiliary_loss().data)
        # cut term is in [-1, 0], ortho term in [0, 2].
        assert -1.0 <= aux <= 3.0


class TestGlobalCoarsenings:
    def test_meanpool_coarsening_single_cluster(self, rng, graph_and_features):
        adj, h = graph_and_features
        adj2, h2, _ = MeanPoolCoarsening()(adj, h)
        assert h2.shape == (1, 5) and adj2.shape == (1, 1)
        np.testing.assert_allclose(h2.data[0], h.data.mean(axis=0))

    def test_meanattpool_coarsening(self, rng, graph_and_features):
        adj, h = graph_and_features
        adj2, h2, _ = MeanAttPoolCoarsening(5, rng)(adj, h)
        assert h2.shape == (1, 5)
