"""Feature vectors and the Hausdorff GED lower bound."""

import numpy as np
import pytest

from repro.ged import hausdorff_ged, hungarian_ged
from repro.graph import (
    FeatureVectorClassifier,
    Graph,
    clustering_coefficient,
    complete_graph,
    cycle_graph,
    exact_ged,
    graph_feature_vector,
    path_graph,
    random_connected,
    spectral_gap,
    star_graph,
)
from repro.graph.features import FEATURE_VECTOR_DIM


class TestHausdorffGED:
    def test_lower_bounds_exact_on_random_pairs(self, rng):
        for _ in range(15):
            g1 = random_connected(int(rng.integers(3, 8)), 0.35, rng)
            g2 = random_connected(int(rng.integers(3, 8)), 0.35, rng)
            assert hausdorff_ged(g1, g2) <= exact_ged(g1, g2) + 1e-9

    def test_bracket_with_upper_bound(self, rng):
        g1 = random_connected(6, 0.4, rng)
        g2 = random_connected(7, 0.4, rng)
        lower = hausdorff_ged(g1, g2)
        upper = hungarian_ged(g1, g2)
        exact = exact_ged(g1, g2)
        assert lower - 1e-9 <= exact <= upper + 1e-9

    def test_symmetric(self, rng):
        g1 = random_connected(5, 0.4, rng)
        g2 = random_connected(6, 0.4, rng)
        assert hausdorff_ged(g1, g2) == pytest.approx(hausdorff_ged(g2, g1))

    def test_labelled_graphs(self, rng):
        g1 = path_graph(4).with_node_labels([0, 0, 1, 1])
        g2 = path_graph(4).with_node_labels([1, 1, 0, 0])
        assert hausdorff_ged(g1, g2) <= exact_ged(g1, g2) + 1e-9

    def test_empty_graph_cost(self):
        g = cycle_graph(4)
        assert hausdorff_ged(Graph.empty(0), g) == 8.0  # 4 nodes + 4 edges


class TestGraphStatistics:
    def test_clustering_coefficient_extremes(self):
        assert clustering_coefficient(complete_graph(5)) == pytest.approx(1.0)
        assert clustering_coefficient(star_graph(5)) == 0.0

    def test_spectral_gap_connectivity(self, rng):
        connected = random_connected(8, 0.5, rng)
        # Two disjoint edges: eigenvalue 0 has multiplicity 2, so the
        # second-smallest eigenvalue (the gap) is 0.
        disconnected = Graph.from_edges(4, [(0, 1), (2, 3)])
        assert spectral_gap(connected) > 1e-6
        assert spectral_gap(disconnected) == pytest.approx(0.0, abs=1e-9)

    def test_feature_vector_shape_and_finite(self, rng):
        for g in (complete_graph(6), path_graph(9),
                  random_connected(12, 0.3, rng).with_node_labels(
                      rng.integers(0, 3, 12))):
            vec = graph_feature_vector(g)
            assert vec.shape == (FEATURE_VECTOR_DIM,)
            assert np.all(np.isfinite(vec))

    def test_feature_vector_separates_structures(self):
        a = graph_feature_vector(complete_graph(8))
        b = graph_feature_vector(path_graph(8))
        assert np.linalg.norm(a - b) > 0.1


class TestFeatureVectorClassifier:
    def test_learns_trivial_split(self, rng):
        from repro.training import TrainConfig, fit

        graphs = []
        for n in range(5, 9):
            graphs.append(complete_graph(n).with_label(1))
            graphs.append(path_graph(n).with_label(0))
        clf = FeatureVectorClassifier(2, rng)
        fit(clf, graphs, rng, TrainConfig(epochs=60, lr=0.05))
        assert sum(clf.predict(g) == g.label for g in graphs) == len(graphs)

    def test_loss_requires_label(self, rng):
        clf = FeatureVectorClassifier(2, rng)
        with pytest.raises(ValueError):
            clf.loss(path_graph(3))
