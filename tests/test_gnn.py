"""GCN/GAT layers and the encoder stack."""

import numpy as np
import pytest

from repro.gnn import GATLayer, GCNLayer, GNNEncoder
from repro.graph import cycle_graph, random_connected
from repro.tensor import Tensor, check_gradients
from tests.gcn_reference import normalize_adjacency


class TestNormalizeAdjacency:
    def test_row_sums_of_regular_graph(self):
        g = cycle_graph(4)  # 2-regular: every D̃ entry is 3
        norm = normalize_adjacency(g.adjacency)
        np.testing.assert_allclose(norm.data.sum(axis=1), np.ones(4))

    def test_symmetric(self, rng):
        g = random_connected(7, 0.4, rng)
        norm = normalize_adjacency(g.adjacency).data
        np.testing.assert_allclose(norm, norm.T)

    def test_differentiable_through_adjacency(self, rng):
        adj_data = random_connected(5, 0.4, rng).adjacency
        adj = Tensor(adj_data + 0.1, requires_grad=True)

        def loss():
            # Symmetrise the perturbed adjacency inside the graph.
            sym = (adj + adj.T) * 0.5
            return normalize_adjacency(sym).sum()

        check_gradients(loss, [adj])


class TestGCNLayer:
    def test_output_shape(self, rng, small_graph):
        layer = GCNLayer(5, 7, rng)
        out = layer(small_graph.adjacency, Tensor(small_graph.features))
        assert out.shape == (8, 7)

    def test_gradients_reach_parameters(self, rng, small_graph):
        layer = GCNLayer(5, 3, rng, activation="none")
        h = Tensor(small_graph.features, requires_grad=True)
        check_gradients(
            lambda: layer(small_graph.adjacency, h).sum(),
            [h, layer.weight, layer.bias],
        )

    def test_permutation_equivariance(self, rng, small_graph):
        layer = GCNLayer(5, 4, rng)
        perm = rng.permutation(8)
        out = layer(small_graph.adjacency, Tensor(small_graph.features)).data
        permuted_graph = small_graph.permute(perm)
        out_perm = layer(
            permuted_graph.adjacency, Tensor(permuted_graph.features)
        ).data
        np.testing.assert_allclose(out_perm, out[perm], atol=1e-10)

    def test_isolated_node_keeps_self_information(self, rng):
        adj = np.zeros((2, 2))
        feats = np.array([[1.0, 0.0], [0.0, 1.0]])
        layer = GCNLayer(2, 2, rng, activation="none")
        out = layer(adj, Tensor(feats)).data
        # With only self-loops the layer reduces to a linear map.
        np.testing.assert_allclose(out, feats @ layer.weight.data + layer.bias.data)

    def test_unknown_activation_rejected(self, rng, small_graph):
        layer = GCNLayer(5, 4, rng, activation="nope")
        with pytest.raises(ValueError):
            layer(small_graph.adjacency, Tensor(small_graph.features))


class TestGATLayer:
    def test_output_shape_and_grad(self, rng, small_graph):
        layer = GATLayer(5, 6, rng, activation="none")
        h = Tensor(small_graph.features, requires_grad=True)
        out = layer(small_graph.adjacency, h)
        assert out.shape == (8, 6)
        check_gradients(
            lambda: layer(small_graph.adjacency, h).sum(),
            [h, layer.att_src, layer.att_dst],
        )

    def test_attention_restricted_to_neighbourhood(self, rng):
        # Two disconnected components: features of one must not leak
        # into the other.
        adj = np.zeros((4, 4))
        adj[0, 1] = adj[1, 0] = 1.0
        adj[2, 3] = adj[3, 2] = 1.0
        layer = GATLayer(2, 3, rng, activation="none")
        feats = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        base = layer(adj, Tensor(feats)).data
        perturbed = feats.copy()
        perturbed[3] = [5.0, -5.0]
        out = layer(adj, Tensor(perturbed)).data
        np.testing.assert_allclose(out[:2], base[:2], atol=1e-12)

    def test_permutation_equivariance(self, rng, small_graph):
        layer = GATLayer(5, 4, rng)
        perm = rng.permutation(8)
        out = layer(small_graph.adjacency, Tensor(small_graph.features)).data
        pg = small_graph.permute(perm)
        out_perm = layer(pg.adjacency, Tensor(pg.features)).data
        np.testing.assert_allclose(out_perm, out[perm], atol=1e-10)

    def test_soft_adjacency_receives_gradient(self, rng):
        adj = Tensor(np.ones((3, 3)) - np.eye(3), requires_grad=True)
        layer = GATLayer(2, 2, rng, activation="none")
        out = layer(adj, Tensor(np.eye(3, 2)))
        out.sum().backward()
        assert adj.grad is not None


class TestEncoder:
    def test_stack_shapes(self, rng, small_graph):
        enc = GNNEncoder([5, 8, 3], rng)
        out = enc(small_graph.adjacency, Tensor(small_graph.features))
        assert out.shape == (8, 3)
        assert enc.out_features == 3

    def test_layer_outputs_per_layer(self, rng, small_graph):
        enc = GNNEncoder([5, 8, 3], rng)
        outs = enc.layer_outputs(small_graph.adjacency, Tensor(small_graph.features))
        assert [o.shape for o in outs] == [(8, 8), (8, 3)]

    def test_gat_variant(self, rng, small_graph):
        enc = GNNEncoder([5, 4], rng, conv="gat")
        assert enc(small_graph.adjacency, Tensor(small_graph.features)).shape == (8, 4)

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            GNNEncoder([5], rng)
        with pytest.raises(ValueError):
            GNNEncoder([5, 4], rng, conv="transformer")
