"""Exact GED: correctness against networkx, metric-ish properties."""

import networkx as nx
import numpy as np
import pytest

from repro.graph import (
    Graph,
    cycle_graph,
    exact_ged,
    path_graph,
    random_connected,
    star_graph,
)
from repro.graph.edit_distance import MAX_EXACT_NODES, completion_cost
from tests.networkx_interop import to_networkx


class TestExactGED:
    def test_identity_is_zero(self, rng):
        for _ in range(5):
            g = random_connected(int(rng.integers(3, 8)), 0.3, rng)
            assert exact_ged(g, g) == 0.0

    def test_isomorphic_pair_is_zero(self, rng):
        g = random_connected(6, 0.3, rng)
        assert exact_ged(g, g.permute(rng.permutation(6))) == 0.0

    def test_symmetry(self, rng):
        for _ in range(5):
            g1 = random_connected(int(rng.integers(3, 6)), 0.35, rng)
            g2 = random_connected(int(rng.integers(3, 6)), 0.35, rng)
            assert exact_ged(g1, g2) == exact_ged(g2, g1)

    def test_matches_networkx_unlabelled(self, rng):
        for _ in range(8):
            g1 = random_connected(int(rng.integers(3, 6)), 0.3, rng)
            g2 = random_connected(int(rng.integers(3, 6)), 0.3, rng)
            ref = nx.graph_edit_distance(to_networkx(g1), to_networkx(g2))
            assert exact_ged(g1, g2) == pytest.approx(ref)

    def test_matches_networkx_labelled(self, rng):
        for _ in range(5):
            n1, n2 = int(rng.integers(3, 6)), int(rng.integers(3, 6))
            g1 = random_connected(n1, 0.3, rng).with_node_labels(
                rng.integers(0, 2, size=n1)
            )
            g2 = random_connected(n2, 0.3, rng).with_node_labels(
                rng.integers(0, 2, size=n2)
            )
            ref = nx.graph_edit_distance(
                to_networkx(g1),
                to_networkx(g2),
                node_match=lambda a, b: a["label"] == b["label"],
            )
            assert exact_ged(g1, g2) == pytest.approx(ref)

    def test_single_edge_difference(self):
        g1 = path_graph(4)
        g2 = cycle_graph(4)  # path + one closing edge
        assert exact_ged(g1, g2) == 1.0

    def test_node_insertion_cost(self):
        g1 = path_graph(3)
        g2 = path_graph(4)  # one node + one edge more
        assert exact_ged(g1, g2) == 2.0

    def test_triangle_inequality_sampled(self, rng):
        graphs = [random_connected(5, 0.4, rng) for _ in range(3)]
        d01 = exact_ged(graphs[0], graphs[1])
        d12 = exact_ged(graphs[1], graphs[2])
        d02 = exact_ged(graphs[0], graphs[2])
        assert d02 <= d01 + d12 + 1e-9

    def test_label_mismatch_costs(self):
        g1 = path_graph(2).with_node_labels([0, 0])
        g2 = path_graph(2).with_node_labels([1, 1])
        assert exact_ged(g1, g2) == 2.0  # two substitutions

    def test_size_limit_enforced(self):
        big = Graph.empty(MAX_EXACT_NODES + 1)
        with pytest.raises(ValueError):
            exact_ged(big, big)

    def test_empty_vs_graph(self):
        g = star_graph(4)
        # Insert 4 nodes + 3 edges.
        assert exact_ged(Graph.empty(0), g) == 7.0

    def test_completion_cost_counts_insertions(self):
        g1 = Graph.empty(0)
        g2 = cycle_graph(3)
        assert completion_cost(g1, g2, ()) == 3 + 3
