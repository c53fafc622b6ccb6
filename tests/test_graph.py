"""Graph value type: invariants, transformations, interop."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graph import Graph


class TestConstruction:
    def test_from_edges(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert g.num_nodes == 4
        assert g.num_edges == 3
        assert g.has_edge(0, 1) and g.has_edge(1, 0)
        assert not g.has_edge(0, 3)

    def test_from_edges_drops_self_loops(self):
        g = Graph.from_edges(3, [(0, 0), (0, 1)])
        assert g.num_edges == 1

    def test_empty(self):
        g = Graph.empty(5)
        assert g.num_nodes == 5 and g.num_edges == 0

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            Graph(np.zeros((2, 3)))

    def test_rejects_asymmetric(self):
        adj = np.zeros((2, 2))
        adj[0, 1] = 1.0
        with pytest.raises(ValueError):
            Graph(adj)

    def test_rejects_self_loops(self):
        adj = np.eye(3)
        with pytest.raises(ValueError):
            Graph(adj)

    def test_rejects_bad_node_labels(self):
        with pytest.raises(ValueError):
            Graph(np.zeros((2, 2)), node_labels=[1, 2, 3])

    def test_rejects_bad_features(self):
        with pytest.raises(ValueError):
            Graph(np.zeros((2, 2)), features=np.zeros((3, 4)))

    def test_weighted_adjacency_preserved(self):
        adj = np.array([[0.0, 2.5], [2.5, 0.0]])
        g = Graph(adj)
        assert g.adjacency[0, 1] == 2.5
        np.testing.assert_allclose(g.degrees(), [2.5, 2.5])


def _perturb(data, array: np.ndarray, positions: list[tuple]) -> None:
    """Apply up to three drawn perturbations to ``array`` in place.

    Each hits one of ``positions`` (never the diagonal) on one side of
    the node axes: a shift by 0, 1e-12, 1e-6 or 1e-3, a NaN on one side
    or both, or the same ±inf on both sides.
    """
    for _ in range(data.draw(st.integers(0, 3))):
        index = data.draw(st.sampled_from(positions))
        mirror = (index[1], index[0], *index[2:])
        kind = data.draw(st.sampled_from(["shift", "nan", "nan-both", "inf-both"]))
        if kind == "shift":
            sign = data.draw(st.sampled_from([-1.0, 1.0]))
            array[index] += sign * data.draw(st.sampled_from([0.0, 1e-12, 1e-6, 1e-3]))
        elif kind == "nan":
            array[index] = np.nan
        elif kind == "nan-both":
            array[index] = array[mirror] = np.nan
        else:
            array[index] = array[mirror] = data.draw(st.sampled_from([np.inf, -np.inf]))


def _random_adjacency(n: int, rng: np.random.Generator) -> np.ndarray:
    upper = np.triu(rng.uniform(0.5, 2.0, (n, n)) * (rng.random((n, n)) < 0.7), 1)
    upper[0, 1] = 1.0  # at least one edge
    return upper + upper.T


class TestSymmetryCheckProperty:
    """``Graph`` rejects input exactly when it is not ``np.allclose`` to its transpose."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), n=st.integers(2, 6), seed=st.integers(0, 2**32 - 1))
    def test_adjacency(self, data, n, seed):
        adj = _random_adjacency(n, np.random.default_rng(seed))
        _perturb(data, adj, [(i, j) for i in range(n) for j in range(n) if i != j])
        if np.allclose(adj, adj.T):
            Graph(adj)
        else:
            with pytest.raises(ValueError, match="symmetric"):
                Graph(adj)

    @settings(max_examples=150, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(2, 6),
        width=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_edge_features(self, data, n, width, seed):
        rng = np.random.default_rng(seed)
        adj = _random_adjacency(n, rng)
        efeats = rng.normal(size=(n, n, width))
        efeats = efeats + efeats.transpose(1, 0, 2)
        efeats[adj == 0] = 0.0
        rows, cols = np.nonzero(adj)
        edges = [(i, j, k) for i, j in zip(rows, cols) for k in range(width)]
        _perturb(data, efeats, edges)
        if np.allclose(efeats, efeats.transpose(1, 0, 2)):
            Graph(adj, edge_features=efeats)
        else:
            with pytest.raises(ValueError, match="symmetric"):
                Graph(adj, edge_features=efeats)


class TestAccessors:
    def test_neighbors(self):
        g = Graph.from_edges(4, [(0, 1), (0, 2)])
        np.testing.assert_array_equal(g.neighbors(0), [1, 2])
        np.testing.assert_array_equal(g.neighbors(3), [])

    def test_edge_list_sorted_pairs(self):
        g = Graph.from_edges(3, [(2, 0), (1, 2)])
        assert g.edge_list() == [(0, 2), (1, 2)]

    def test_repr(self):
        assert "Graph(n=2" in repr(Graph.empty(2))


class TestTransformations:
    def test_permute_preserves_structure(self, rng):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)], node_labels=[0, 1, 2, 3])
        g = g.with_features(rng.normal(size=(4, 2)))
        perm = [3, 1, 0, 2]
        p = g.permute(perm)
        assert p.num_edges == g.num_edges
        for i in range(4):
            for j in range(4):
                assert p.adjacency[i, j] == g.adjacency[perm[i], perm[j]]
            assert p.node_labels[i] == g.node_labels[perm[i]]
            np.testing.assert_array_equal(p.features[i], g.features[perm[i]])

    def test_permute_rejects_non_bijection(self):
        g = Graph.empty(3)
        with pytest.raises(ValueError):
            g.permute([0, 0, 1])

    def test_subgraph_induced(self):
        g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        sub = g.subgraph([0, 1, 4])
        assert sub.num_nodes == 3
        assert sub.num_edges == 2  # (0,1) and (0,4)

    def test_add_nodes(self):
        g = Graph.from_edges(3, [(0, 1)], node_labels=[1, 1, 1])
        bigger = g.add_nodes(2, edges=[(0, 3), (3, 4)], node_labels=[7, 7])
        assert bigger.num_nodes == 5
        assert bigger.has_edge(0, 3) and bigger.has_edge(3, 4)
        assert bigger.has_edge(0, 1)  # original edges kept
        np.testing.assert_array_equal(bigger.node_labels, [1, 1, 1, 7, 7])

    def test_with_helpers_are_pure(self):
        g = Graph.empty(2)
        g2 = g.with_label(1)
        assert g.label is None and g2.label == 1
        g3 = g.with_features(np.zeros((2, 3)))
        assert g.features is None and g3.features.shape == (2, 3)

    def test_with_features_checks_only_the_features(self):
        g = Graph.from_edges(
            3, [(0, 1), (1, 2)], node_labels=[0, 1, 2], label=1,
            edge_features={(0, 1): [2.0]}, num_edge_features=1,
        )
        featured = g.with_features([[1], [2], [3]])
        assert featured.features.dtype == np.float64
        for name in ("adjacency", "node_labels", "edge_features", "meta"):
            assert getattr(featured, name) is getattr(g, name), name
        assert featured.label == 1
        for bad in (np.zeros((2, 3)), np.zeros(3), None):
            with pytest.raises(ValueError, match="features must be"):
                g.with_features(bad)


class TestNetworkxInterop:
    def test_roundtrip(self, rng):
        from repro.graph import random_connected

        g = random_connected(6, 0.4, rng).with_node_labels([0, 1, 2, 0, 1, 2])
        back = Graph.from_networkx(g.to_networkx())
        np.testing.assert_array_equal(back.adjacency, g.adjacency)
        np.testing.assert_array_equal(back.node_labels, g.node_labels)

    def test_weights_roundtrip(self):
        adj = np.array([[0.0, 0.5], [0.5, 0.0]])
        back = Graph.from_networkx(Graph(adj).to_networkx())
        np.testing.assert_allclose(back.adjacency, adj)
