"""Heterogeneous-graph extension: graph type, RGCN, coarsening, model."""

import numpy as np
import pytest

from repro.hetero import (
    HeteroGraph,
    HeteroEncoder,
    HeteroGraphClassifier,
    HeteroGraphCoarsening,
    HeteroHAPEmbedder,
    RGCNLayer,
    make_hetero_social_like,
)
from repro.tensor import Tensor


def _toy_hetero(rng, n=8):
    def sym(p):
        upper = np.triu(rng.random((n, n)) < p, k=1)
        return (upper | upper.T).astype(np.float64)

    return HeteroGraph(
        {"a": sym(0.3), "b": sym(0.3)},
        features=rng.normal(size=(n, 3)),
        label=0,
    )


class TestHeteroGraph:
    def test_basic_accessors(self, rng):
        g = _toy_hetero(rng)
        assert g.num_nodes == 8
        assert g.relations == ["a", "b"]
        assert g.num_edges("a") >= 0

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            HeteroGraph({})
        with pytest.raises(ValueError):
            HeteroGraph({"a": np.zeros((2, 3))})
        asym = np.zeros((2, 2))
        asym[0, 1] = 1.0
        with pytest.raises(ValueError):
            HeteroGraph({"a": asym})
        with pytest.raises(ValueError):
            HeteroGraph({"a": np.zeros((2, 2)), "b": np.zeros((3, 3))})
        with pytest.raises(ValueError):
            HeteroGraph({"a": np.eye(2)})

    def test_merged_adjacency_is_union(self, rng):
        g = _toy_hetero(rng)
        merged = g.merged_adjacency()
        for name in g.relations:
            assert np.all(merged >= (g.adjacencies[name] > 0))
        assert merged.max() <= 1.0

    def test_permute_consistency(self, rng):
        g = _toy_hetero(rng)
        perm = rng.permutation(8)
        p = g.permute(perm)
        for name in g.relations:
            np.testing.assert_array_equal(
                p.adjacencies[name], g.adjacencies[name][np.ix_(perm, perm)]
            )
        np.testing.assert_array_equal(p.features, g.features[perm])

    def test_permute_rejects_bad(self, rng):
        with pytest.raises(ValueError):
            _toy_hetero(rng).permute([0] * 8)

    def test_with_features_checks_only_the_features(self, rng, monkeypatch):
        g = _toy_hetero(rng)
        calls = []
        allclose = np.allclose
        monkeypatch.setattr(
            np, "allclose", lambda *a, **k: calls.append(1) or allclose(*a, **k)
        )
        featured = g.with_features([[1.0]] * 8)
        assert calls == []  # the relations are not re-validated
        assert featured.features.dtype == np.float64
        for name in g.relations:
            assert featured.adjacencies[name] is g.adjacencies[name]
        assert g.features.shape == (8, 3)
        for bad in (np.zeros((7, 2)), np.zeros(8), None):
            with pytest.raises(ValueError, match="features must be"):
                g.with_features(bad)


class TestRGCN:
    def test_layer_shapes_and_gradients(self, rng):
        g = _toy_hetero(rng)
        layer = RGCNLayer(["a", "b"], 3, 5, rng)
        out = layer(g.adjacencies, Tensor(g.features))
        assert out.shape == (8, 5)
        out.sum().backward()
        for name, p in layer.named_parameters():
            assert p.grad is not None, name

    def test_missing_relation_rejected(self, rng):
        g = _toy_hetero(rng)
        layer = RGCNLayer(["a", "b", "c"], 3, 5, rng)
        with pytest.raises(KeyError):
            layer(g.adjacencies, Tensor(g.features))

    def test_relations_required(self, rng):
        with pytest.raises(ValueError):
            RGCNLayer([], 3, 5, rng)

    def test_relations_are_distinguished(self, rng):
        # Swapping the two relations' adjacencies must change the output
        # (per-relation weights) unless the weights happen to coincide.
        g = _toy_hetero(rng)
        layer = RGCNLayer(["a", "b"], 3, 4, rng, activation="none")
        out1 = layer(g.adjacencies, Tensor(g.features)).data
        swapped = {"a": g.adjacencies["b"], "b": g.adjacencies["a"]}
        out2 = layer(swapped, Tensor(g.features)).data
        assert not np.allclose(out1, out2)

    def test_encoder_stack(self, rng):
        g = _toy_hetero(rng)
        enc = HeteroEncoder(["a", "b"], [3, 6, 4], rng)
        assert enc(g.adjacencies, Tensor(g.features)).shape == (8, 4)
        with pytest.raises(ValueError):
            HeteroEncoder(["a"], [3], rng)


class TestHeteroCoarsening:
    def test_coarsens_every_relation(self, rng):
        g = _toy_hetero(rng)
        module = HeteroGraphCoarsening(["a", "b"], 3, 4, rng)
        module.eval()
        coarse_adjs, h_coarse, m = module.coarsen(g.adjacencies, Tensor(g.features))
        assert set(coarse_adjs) == {"a", "b"}
        assert all(adj.shape == (4, 4) for adj in coarse_adjs.values())
        assert h_coarse.shape == (4, 3)
        np.testing.assert_allclose(m.data.sum(axis=1), np.ones(8))

    def test_shared_assignment_formation(self, rng):
        g = _toy_hetero(rng)
        module = HeteroGraphCoarsening(["a", "b"], 3, 4, rng, soft_sampling=False)
        module.eval()
        coarse_adjs, h_coarse, m = module.coarsen(g.adjacencies, Tensor(g.features))
        for name in g.relations:
            np.testing.assert_allclose(
                coarse_adjs[name].data,
                m.data.T @ g.adjacencies[name] @ m.data,
                atol=1e-10,
            )


class TestHeteroModel:
    def test_embedder_levels(self, rng):
        g = _toy_hetero(rng)
        emb = HeteroHAPEmbedder(["a", "b"], 3, 8, [4, 1], rng)
        levels = emb.embed_levels(g)
        assert len(levels) == 2
        assert all(level.shape == (8,) for level in levels)

    def test_classifier_roundtrip(self, rng):
        g = _toy_hetero(rng)
        emb = HeteroHAPEmbedder(["a", "b"], 3, 8, [4, 1], rng)
        model = HeteroGraphClassifier(emb, 2, rng)
        loss = model.loss(g)
        loss.backward()
        assert model.predict(g) in (0, 1)
        proba = model.predict_proba(g)
        np.testing.assert_allclose(proba.sum(), 1.0)

    def test_permutation_invariance(self, rng):
        g = _toy_hetero(rng)
        emb = HeteroHAPEmbedder(["a", "b"], 3, 8, [4, 1], rng)
        model = HeteroGraphClassifier(emb, 2, rng)
        model.eval()
        p1 = model.predict_proba(g)
        p2 = model.predict_proba(g.permute(rng.permutation(8)))
        np.testing.assert_allclose(p1, p2, atol=1e-8)

    def test_features_required(self, rng):
        g = _toy_hetero(rng)
        bare = HeteroGraph(dict(g.adjacencies))
        emb = HeteroHAPEmbedder(["a", "b"], 3, 8, [4], rng)
        with pytest.raises(ValueError):
            emb.embed_levels(bare)

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            HeteroHAPEmbedder(["a"], 3, 8, [], rng)
        emb = HeteroHAPEmbedder(["a"], 3, 8, [2], rng)
        with pytest.raises(ValueError):
            HeteroGraphClassifier(emb, 1, rng)


class TestHeteroDataset:
    def test_generator_shapes_and_labels(self, rng):
        graphs = make_hetero_social_like(20, rng)
        assert len(graphs) == 20
        assert {g.label for g in graphs} == {0, 1}
        for g in graphs:
            assert g.relations == ["collab", "friend"]
            assert g.features.shape == (g.num_nodes, 2)

    def test_relation_marginals_similar_across_classes(self, rng):
        graphs = make_hetero_social_like(100, rng)
        by_class = {0: [], 1: []}
        for g in graphs:
            by_class[g.label].append(g.num_edges("friend"))
        # Friend-relation edge counts alone should not separate classes.
        means = {c: np.mean(v) for c, v in by_class.items()}
        assert abs(means[0] - means[1]) < 5.0
