"""Graph kernels, spectral pooling, extra GNN layers, perturbations."""

import numpy as np
import pytest

from repro.data.perturb import drop_edges
from repro.gnn import GINLayer, GNNEncoder, SAGELayer
from repro.graph import (
    KernelNearestCentroid,
    cycle_graph,
    is_connected,
    path_graph,
    random_connected,
    shortest_path_kernel,
    star_graph,
    wl_subtree_kernel,
)
from repro.pooling import SpectralPool, normalized_laplacian, spectral_embedding
from repro.tensor import Tensor


class TestWLKernel:
    def test_symmetric_and_positive(self, rng):
        g1 = random_connected(6, 0.4, rng)
        g2 = random_connected(7, 0.4, rng)
        assert wl_subtree_kernel(g1, g2) == wl_subtree_kernel(g2, g1)
        assert wl_subtree_kernel(g1, g1) > 0

    def test_isomorphic_graphs_maximise_normalised_value(self, rng):
        g = random_connected(6, 0.4, rng)
        permuted = g.permute(rng.permutation(6))
        same = wl_subtree_kernel(g, permuted)
        self_value = wl_subtree_kernel(g, g)
        assert same == pytest.approx(self_value)

    def test_distinguishes_star_from_path(self):
        star, path = star_graph(6), path_graph(6)
        cross = wl_subtree_kernel(star, path)
        self_star = wl_subtree_kernel(star, star)
        assert cross < self_star

    def test_respects_node_labels(self):
        a = path_graph(3).with_node_labels([0, 0, 0])
        b = path_graph(3).with_node_labels([1, 1, 1])
        assert wl_subtree_kernel(a, b) == 0.0


class TestShortestPathKernel:
    def test_symmetric(self, rng):
        g1 = random_connected(6, 0.4, rng)
        g2 = random_connected(5, 0.4, rng)
        assert shortest_path_kernel(g1, g2) == shortest_path_kernel(g2, g1)

    def test_path_vs_cycle_normalised_similarity_below_one(self):
        pp = shortest_path_kernel(path_graph(5), path_graph(5))
        cc = shortest_path_kernel(cycle_graph(5), cycle_graph(5))
        pc = shortest_path_kernel(path_graph(5), cycle_graph(5))
        # Cosine-normalised cross-similarity of non-isomorphic graphs is
        # strictly below the self-similarity of 1.
        assert pc / np.sqrt(pp * cc) < 1.0


class TestKernelClassifier:
    def test_learns_trivial_split(self, rng):
        graphs = []
        for n in range(5, 9):
            graphs.append(star_graph(n).with_label(0))
            graphs.append(path_graph(n).with_label(1))
        clf = KernelNearestCentroid(wl_subtree_kernel).fit(graphs)
        assert clf.accuracy(graphs) == 1.0

    def test_validations(self, rng):
        clf = KernelNearestCentroid()
        with pytest.raises(ValueError):
            clf.fit([])
        with pytest.raises(RuntimeError):
            clf.predict(path_graph(3))
        with pytest.raises(ValueError):
            clf.fit([path_graph(3)])  # unlabelled


class TestSpectral:
    def test_laplacian_eigenvalues_bounded(self, rng):
        g = random_connected(8, 0.4, rng)
        eigenvalues = np.linalg.eigvalsh(normalized_laplacian(g.adjacency))
        assert eigenvalues.min() >= -1e-9
        assert eigenvalues.max() <= 2.0 + 1e-9

    def test_embedding_shape_and_determinism(self, rng):
        g = random_connected(8, 0.4, rng)
        e1 = spectral_embedding(g.adjacency, 3)
        e2 = spectral_embedding(g.adjacency, 3)
        assert e1.shape == (8, 3)
        np.testing.assert_array_equal(e1, e2)

    def test_embedding_pads_small_graphs(self):
        e = spectral_embedding(np.zeros((2, 2)), 5)
        assert e.shape == (2, 5)

    def test_spectral_pool_coarsens(self, rng, small_graph):
        pool = SpectralPool(5, 3, rng)
        adj2, h2, _ = pool(small_graph.adjacency, Tensor(small_graph.features))
        assert adj2.shape == (3, 3) and h2.shape == (3, 5)
        s = pool.assignment(small_graph.adjacency, Tensor(small_graph.features))
        np.testing.assert_allclose(s.data.sum(axis=1), np.ones(8))

    def test_spectral_pool_validation(self, rng):
        with pytest.raises(ValueError):
            SpectralPool(5, 0, rng)


class TestExtraGNNLayers:
    def test_gin_shapes_and_grads(self, rng, small_graph):
        layer = GINLayer(5, 7, rng)
        out = layer(small_graph.adjacency, Tensor(small_graph.features))
        assert out.shape == (8, 7)
        out.sum().backward()
        assert layer.eps.grad is not None

    def test_gin_sum_aggregation_sees_multiplicity(self, rng):
        # GIN on two isolated cliques of different sizes must differ per
        # node even with identical features (sum aggregation).
        layer = GINLayer(2, 4, rng, activation="none")
        adj = np.zeros((5, 5))
        adj[0, 1] = adj[1, 0] = 1.0  # pair
        adj[2, 3] = adj[3, 2] = adj[2, 4] = adj[4, 2] = adj[3, 4] = adj[4, 3] = 1.0
        out = layer(adj, Tensor(np.ones((5, 2)))).data
        assert not np.allclose(out[0], out[2])

    def test_sage_shapes(self, rng, small_graph):
        layer = SAGELayer(5, 6, rng)
        out = layer(small_graph.adjacency, Tensor(small_graph.features))
        assert out.shape == (8, 6)

    def test_encoder_accepts_new_conv_types(self, rng, small_graph):
        for conv in ("gin", "sage"):
            enc = GNNEncoder([5, 6], rng, conv=conv)
            assert enc(small_graph.adjacency, Tensor(small_graph.features)).shape == (8, 6)

    def test_zoo_accepts_conv_parameter(self, rng):
        from repro.models import zoo
        from repro.data import attach_degree_features

        g = attach_degree_features(random_connected(6, 0.4, rng).with_label(0), 8)
        for conv in ("gin", "sage"):
            model = zoo.make_classifier("HAP", 8, 2, rng, hidden=6,
                                        cluster_sizes=(2, 1), conv=conv)
            assert model.predict(g) in (0, 1)


class TestPerturbations:
    def test_drop_edges_reduces_and_reconnects(self, rng):
        g = random_connected(10, 0.4, rng)
        dropped = drop_edges(g, 0.5, rng)
        assert dropped.num_edges <= g.num_edges
        assert is_connected(dropped)
        assert dropped.label == g.label

    def test_drop_edges_zero_is_identity(self, rng):
        g = random_connected(8, 0.4, rng)
        same = drop_edges(g, 0.0, rng)
        np.testing.assert_array_equal(same.adjacency, g.adjacency)

    def test_fraction_validation(self, rng):
        g = random_connected(5, 0.4, rng)
        with pytest.raises(ValueError):
            drop_edges(g, 1.5, rng)
        with pytest.raises(ValueError):
            drop_edges(g, -0.1, rng)
