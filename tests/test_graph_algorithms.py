"""Graph algorithms: connectivity, distances, WL, subgraph sampling."""

import networkx as nx
import numpy as np
import pytest

from repro.graph import (
    Graph,
    connected_components,
    cycle_graph,
    degrees,
    is_connected,
    path_graph,
    random_connected,
    random_connected_subgraph,
    shortest_path_lengths,
    star_graph,
    wl_colors,
)
from tests.networkx_interop import to_networkx


class TestConnectivity:
    def test_components_of_disjoint_graph(self):
        g = Graph.from_edges(6, [(0, 1), (1, 2), (3, 4)])
        comps = connected_components(g)
        assert [len(c) for c in comps] == [3, 2, 1]
        assert comps[0] == [0, 1, 2]

    def test_is_connected(self):
        assert is_connected(cycle_graph(5))
        assert not is_connected(Graph.empty(3))
        assert is_connected(Graph.empty(0))


class TestDistances:
    def test_bfs_matches_networkx(self, rng):
        for _ in range(5):
            g = random_connected(10, 0.25, rng)
            ours = shortest_path_lengths(g, 0)
            ref = nx.single_source_shortest_path_length(to_networkx(g), 0)
            for v in range(10):
                assert ours[v] == ref[v]

    def test_unreachable_marked(self):
        g = Graph.from_edges(3, [(0, 1)])
        dist = shortest_path_lengths(g, 0)
        assert dist[2] == -1


class TestWL:
    def test_wl_distinguishes_star_from_path(self):
        star, path = star_graph(5), path_graph(5)
        c_star = sorted(wl_colors(star, 2)[-1].tolist())
        c_path = sorted(wl_colors(path, 2)[-1].tolist())
        # Colour histograms differ (different structures).
        assert c_star != c_path

    def test_wl_respects_node_labels(self):
        g = path_graph(4)
        colored = g.with_node_labels([0, 1, 1, 0])
        plain = wl_colors(g, 1)[-1]
        labelled = wl_colors(colored, 1)[-1]
        # Labelled version refines more finely at iteration 1.
        assert len(set(labelled.tolist())) >= len(set(plain.tolist()))

    def test_wl_equivariant_under_permutation(self, rng):
        g = random_connected(8, 0.3, rng)
        perm = rng.permutation(8)
        original = wl_colors(g, 3)[-1]
        permuted = wl_colors(g.permute(perm), 3)[-1]
        # Canonical ids: colours commute with the permutation exactly.
        np.testing.assert_array_equal(permuted, original[perm])

    def test_wl_shape(self, rng):
        g = random_connected(6, 0.4, rng)
        out = wl_colors(g, 4)
        assert out.shape == (5, 6)

    def test_degrees_function(self):
        g = star_graph(4)
        np.testing.assert_array_equal(degrees(g), [3, 1, 1, 1])


class TestRandomSubgraph:
    def test_subgraph_is_connected_and_sized(self, rng):
        g = random_connected(12, 0.25, rng)
        for size in (3, 6, 12):
            sub, nodes = random_connected_subgraph(g, size, rng)
            assert sub.num_nodes == size
            assert is_connected(sub)
            assert len(set(nodes.tolist())) == size

    def test_subgraph_size_validation(self, rng):
        g = random_connected(5, 0.3, rng)
        with pytest.raises(ValueError):
            random_connected_subgraph(g, 0, rng)
        with pytest.raises(ValueError):
            random_connected_subgraph(g, 6, rng)
