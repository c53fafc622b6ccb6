"""VF2 (sub)graph isomorphism, cross-checked against networkx."""

import networkx as nx
import numpy as np
import pytest

from repro.graph import (
    Graph,
    VF2Matcher,
    cycle_graph,
    erdos_renyi,
    is_isomorphic,
    path_graph,
    random_connected,
    random_connected_subgraph,
    star_graph,
    subgraph_is_isomorphic,
)
from tests.networkx_interop import to_networkx


class TestGraphIsomorphism:
    def test_graph_isomorphic_to_own_permutation(self, rng):
        for _ in range(10):
            g = random_connected(int(rng.integers(4, 9)), 0.35, rng)
            perm = rng.permutation(g.num_nodes)
            assert is_isomorphic(g, g.permute(perm))

    def test_different_structures_not_isomorphic(self):
        assert not is_isomorphic(star_graph(5), path_graph(5))
        assert not is_isomorphic(cycle_graph(4), path_graph(4))

    def test_matches_networkx_on_random_pairs(self, rng):
        agree = 0
        for _ in range(30):
            n = int(rng.integers(4, 8))
            g = erdos_renyi(n, 0.4, rng)
            h = erdos_renyi(n, 0.4, rng)
            ours = is_isomorphic(g, h)
            ref = nx.is_isomorphic(to_networkx(g), to_networkx(h))
            assert ours == ref
            agree += 1
        assert agree == 30

    def test_size_mismatch_fast_reject(self):
        assert not is_isomorphic(path_graph(3), path_graph(4))

    def test_node_labels_block_match(self):
        g1 = path_graph(3).with_node_labels([0, 1, 0])
        g2 = path_graph(3).with_node_labels([1, 0, 1])
        assert not is_isomorphic(g1, g2)
        g3 = path_graph(3).with_node_labels([0, 1, 0])
        assert is_isomorphic(g1, g3)

    def test_empty_graphs(self):
        assert is_isomorphic(Graph.empty(0), Graph.empty(0))

    def test_mapping_is_valid(self, rng):
        g = random_connected(7, 0.35, rng)
        perm = rng.permutation(7)
        h = g.permute(perm)
        mapping = VF2Matcher(g, h, mode="graph").match()
        assert mapping is not None
        for (i, j) in g.edge_list():
            assert h.has_edge(mapping[i], mapping[j])

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            VF2Matcher(Graph.empty(1), Graph.empty(1), mode="nope")


class TestSubgraphIsomorphism:
    def test_connected_subgraph_always_matches(self, rng):
        for _ in range(10):
            g = random_connected(9, 0.35, rng)
            sub, _ = random_connected_subgraph(g, 6, rng)
            assert subgraph_is_isomorphic(sub, g)

    def test_larger_pattern_rejected(self):
        assert not subgraph_is_isomorphic(path_graph(5), path_graph(4))

    def test_induced_semantics(self):
        # A path on 3 nodes is NOT an induced subgraph of a triangle
        # (the triangle's extra edge violates inducedness).
        assert not subgraph_is_isomorphic(path_graph(3), cycle_graph(3))
        # But an edge is.
        assert subgraph_is_isomorphic(path_graph(2), cycle_graph(3))

    def test_matches_networkx_subgraph_checker(self, rng):
        for _ in range(15):
            target = erdos_renyi(7, 0.45, rng)
            pattern = erdos_renyi(4, 0.45, rng)
            ours = subgraph_is_isomorphic(pattern, target)
            matcher = nx.algorithms.isomorphism.GraphMatcher(
                to_networkx(target), to_networkx(pattern)
            )
            ref = matcher.subgraph_is_isomorphic()
            assert ours == ref
