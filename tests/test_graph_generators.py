"""Random graph generators: sizes, connectivity, structure."""

import numpy as np
import pytest

from repro.graph import (
    complete_graph,
    cycle_graph,
    erdos_renyi,
    is_connected,
    path_graph,
    planted_communities,
    random_connected,
    random_tree,
    star_graph,
)


class TestDeterministicShapes:
    def test_cycle(self):
        g = cycle_graph(6)
        assert g.num_edges == 6
        assert np.all(g.degrees() == 2)

    def test_path(self):
        g = path_graph(5)
        assert g.num_edges == 4
        assert sorted(g.degrees().tolist()) == [1, 1, 2, 2, 2]

    def test_star(self):
        g = star_graph(7)
        assert g.num_edges == 6
        assert g.degrees()[0] == 6

    def test_complete(self):
        g = complete_graph(5)
        assert g.num_edges == 10


class TestRandomGenerators:
    def test_erdos_renyi_density(self, rng):
        g = erdos_renyi(60, 0.2, rng)
        assert 0.1 < g.num_edges / (60 * 59 / 2) < 0.3

    def test_erdos_renyi_rejects_empty(self, rng):
        with pytest.raises(ValueError):
            erdos_renyi(0, 0.5, rng)

    def test_random_connected_is_connected(self, rng):
        for _ in range(10):
            g = random_connected(12, 0.15, rng)
            assert is_connected(g)
            assert g.num_nodes == 12

    def test_random_tree_edge_count(self, rng):
        g = random_tree(9, rng)
        assert g.num_edges == 8
        assert is_connected(g)

    def test_planted_communities_structure(self, rng):
        g = planted_communities([8, 8, 8], p_in=0.8, p_out=0.02, rng=rng)
        assert g.num_nodes == 24
        assert is_connected(g)
        membership = g.meta["membership"]
        same = membership[:, None] == membership[None, :]
        internal = g.adjacency[same].sum()
        external = g.adjacency[~same].sum()
        assert internal > external  # dense blocks, sparse cross edges

    def test_generators_are_seeded(self):
        a = erdos_renyi(20, 0.3, np.random.default_rng(7))
        b = erdos_renyi(20, 0.3, np.random.default_rng(7))
        np.testing.assert_array_equal(a.adjacency, b.adjacency)
