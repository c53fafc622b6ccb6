"""Task models: classifier, matcher, similarity, GMN, SimGNN, zoo."""

import numpy as np
import pytest

from repro.data import MatchingPair, GraphTriplet, attach_degree_features
from repro.graph import random_connected
from repro.models import (
    GMN,
    GraphClassifier,
    MatchingModel,
    SimGNN,
    SimilarityModel,
    euclidean_distance,
    graph_inputs,
    zoo,
)
from repro.tensor import Tensor


def _featured_graph(rng, n=8, label=0):
    g = random_connected(n, 0.35, rng).with_label(label)
    return attach_degree_features(g, 8)


@pytest.fixture
def pair(rng):
    return MatchingPair(_featured_graph(rng), _featured_graph(rng, n=6), 1)


@pytest.fixture
def triplet(rng):
    return GraphTriplet(
        _featured_graph(rng),
        _featured_graph(rng, n=7),
        _featured_graph(rng, n=6),
        relative_ged=1.5,
    )


class TestCommon:
    def test_euclidean_distance(self):
        a = Tensor(np.array([0.0, 3.0]))
        b = Tensor(np.array([4.0, 0.0]))
        assert float(euclidean_distance(a, b).data) == pytest.approx(5.0)

    def test_graph_inputs_requires_features(self, rng):
        with pytest.raises(ValueError):
            graph_inputs(random_connected(4, 0.5, rng))


class TestGraphClassifier:
    def _model(self, rng, method="SumPool"):
        return zoo.make_classifier(method, 8, 2, rng, hidden=8)

    def test_logits_shape(self, rng):
        model = self._model(rng)
        assert model.logits(_featured_graph(rng)).shape == (2,)

    def test_predict_and_proba(self, rng):
        model = self._model(rng)
        g = _featured_graph(rng)
        proba = model.predict_proba(g)
        assert proba.shape == (2,)
        np.testing.assert_allclose(proba.sum(), 1.0)
        assert model.predict(g) == int(np.argmax(proba))

    def test_loss_requires_label(self, rng):
        model = self._model(rng)
        g = _featured_graph(rng)
        object.__setattr__(g, "label", None)
        with pytest.raises(ValueError):
            model.loss(g)

    def test_embed_returns_versioned_result(self, rng):
        from repro.models import EMBEDDING_SCHEMA, EmbeddingResult

        model = self._model(rng, "HAP")
        emb = model.embed(_featured_graph(rng))
        assert isinstance(emb, EmbeddingResult)
        assert emb.schema == EMBEDDING_SCHEMA
        assert emb.graph_hash and emb.model_fingerprint
        # numpy consumers see the raw vector (docs/serving.md)
        assert np.asarray(emb).ndim == 1

    def test_class_count_validation(self, rng):
        with pytest.raises(ValueError):
            GraphClassifier(zoo.make_embedder("SumPool", 8, 8, rng), 1, rng)

    def test_hierarchical_prediction_uses_all_levels(self, rng):
        # Zeroing the final level must still leave a signal from level 1.
        model = self._model(rng, "HAP")
        g = _featured_graph(rng)
        full = model.logits(g).data.copy()
        assert full.shape == (2,)


class TestMatchingModel:
    def test_distance_per_level(self, rng, pair):
        model = zoo.make_matcher("HAP", 8, rng, hidden=8, cluster_sizes=(3, 1))
        dists = model.distances(pair)
        assert len(dists) == 2
        assert all(float(d.data) >= 0 for d in dists)

    def test_similarity_in_unit_interval(self, rng, pair):
        model = zoo.make_matcher("HAP", 8, rng, hidden=8)
        s = model.similarity(pair)
        assert 0.0 < s <= 1.0
        assert model.predict(pair) in (0, 1)

    def test_identical_pair_has_similarity_one(self, rng):
        g = _featured_graph(rng)
        model = zoo.make_matcher("SumPool", 8, rng, hidden=8)
        model.eval()
        s = model.similarity(MatchingPair(g, g, 1))
        assert s == pytest.approx(1.0, abs=1e-6)

    def test_loss_positive(self, rng, pair):
        model = zoo.make_matcher("HAP", 8, rng, hidden=8)
        assert float(model.loss(pair).data) > 0


class TestSimilarityModel:
    def test_relative_distance_sign_prediction(self, rng, triplet):
        model = zoo.make_similarity("HAP", 8, rng, hidden=8, cluster_sizes=(3, 1))
        rel = model.relative_distance(triplet)
        assert isinstance(rel, float)
        assert model.predict_closer_to_right(triplet) == (rel > 0)

    def test_loss_zero_for_perfect_prediction(self, rng):
        g = _featured_graph(rng)
        model = zoo.make_similarity("SumPool", 8, rng, hidden=8)
        model.eval()
        t = GraphTriplet(g, g, g, relative_ged=0.0)
        assert float(model.loss(t).data) == pytest.approx(0.0, abs=1e-9)


class TestGMN:
    def test_pair_embeddings_are_pair_dependent(self, rng, pair):
        gmn = GMN(8, 8, rng, num_layers=2)
        g1, g2, other = (
            graph_inputs(g)[:2] for g in (pair.g1, pair.g2, _featured_graph(rng, n=9))
        )
        e1a, _ = gmn.embed_pair(*g1, *g2)
        e1b, _ = gmn.embed_pair(*g1, *other)
        # Embedding of g1 changes with its partner (cross-graph attention).
        assert not np.allclose(e1a[0].data, e1b[0].data)

    def test_matcher_head_on_gmn(self, rng, pair):
        model = zoo.make_matcher("GMN", 8, rng, hidden=8)
        assert model.predict(pair) in (0, 1)

    def test_gmn_hap_uses_hierarchy(self, rng, pair):
        model = zoo.make_matcher("GMN-HAP", 8, rng, hidden=8, cluster_sizes=(3, 1))
        dists = model.distances(pair)
        assert len(dists) == 2  # one per HAP level

    def test_similarity_head_on_gmn(self, rng, triplet):
        model = zoo.make_similarity("GMN", 8, rng, hidden=8)
        assert isinstance(model.relative_distance(triplet), float)

    def test_layer_validation(self, rng):
        with pytest.raises(ValueError):
            GMN(8, 8, rng, num_layers=0)


class TestSimGNN:
    def test_pair_score_in_unit_interval(self, rng, pair):
        model = SimGNN(8, 8, rng)
        score = model.pair_score(pair.g1, pair.g2)
        assert 0.0 < float(score.data) < 1.0

    def test_similarity_target_formula(self, rng, pair):
        target = SimGNN.similarity_target(pair.g1, pair.g2, ged=0.0)
        assert target == 1.0
        closer = SimGNN.similarity_target(pair.g1, pair.g2, ged=1.0)
        further = SimGNN.similarity_target(pair.g1, pair.g2, ged=5.0)
        assert closer > further

    def test_pair_loss_nonnegative(self, rng, pair):
        model = SimGNN(8, 8, rng)
        assert float(model.pair_loss(pair.g1, pair.g2, 2.0).data) >= 0

    def test_triplet_interface(self, rng, triplet):
        model = SimGNN(8, 8, rng)
        assert model.predict_closer_to_right(triplet) in (True, False)

    def test_hap_pooling_variant(self, rng, pair):
        model = zoo.make_simgnn(8, rng, hidden=8, use_hap_pooling=True,
                                cluster_sizes=(3, 1))
        assert 0.0 < float(model.pair_score(pair.g1, pair.g2).data) < 1.0


class TestZoo:
    @pytest.mark.parametrize("method", zoo.CLASSIFICATION_METHODS)
    def test_every_table3_method_builds_and_runs(self, method, rng):
        model = zoo.make_classifier(method, 8, 2, rng, hidden=8, cluster_sizes=(3, 1))
        g = _featured_graph(rng)
        loss = model.loss(g)
        loss.backward()
        assert model.predict(g) in (0, 1)

    @pytest.mark.parametrize("method", zoo.ABLATION_METHODS)
    def test_every_ablation_method_builds(self, method, rng):
        model = zoo.make_classifier(method, 8, 2, rng, hidden=8, cluster_sizes=(3, 1))
        assert model.predict(_featured_graph(rng)) in (0, 1)

    def test_extension_methods_available(self, rng):
        for method in ("MaxPool", "MinCutPool"):
            model = zoo.make_classifier(method, 8, 2, rng, hidden=8,
                                        cluster_sizes=(3, 1))
            assert model.predict(_featured_graph(rng)) in (0, 1)

    def test_unknown_method_rejected(self, rng):
        with pytest.raises(ValueError):
            zoo.make_embedder("MagicPool", 8, 8, rng)
