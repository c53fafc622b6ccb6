"""HAP core: GCont, MOA, graph coarsening module, hierarchical model."""

import numpy as np
import pytest

from repro.core import (
    GCont,
    GraphCoarsening,
    HierarchicalEmbedder,
    MOA,
    build_hap_embedder,
    gumbel_soft_sample,
)
from repro.gnn import GNNEncoder
from repro.graph import random_connected
from repro.pooling import Coarsening
from repro.tensor import Tensor, concat, leaky_relu
from tests.moa_reference import concat_score


class TestGCont:
    def test_shape_is_nodes_by_clusters(self, rng):
        gcont = GCont(5, 3, rng)
        c = gcont(Tensor(rng.normal(size=(10, 5))))
        assert c.shape == (10, 3)

    def test_same_params_any_graph_size(self, rng):
        # The generalisation property: T depends only on (F, N').
        gcont = GCont(5, 3, rng)
        assert gcont(Tensor(rng.normal(size=(4, 5)))).shape == (4, 3)
        assert gcont(Tensor(rng.normal(size=(50, 5)))).shape == (50, 3)

    def test_feature_mismatch_raises(self, rng):
        gcont = GCont(5, 3, rng)
        with pytest.raises(ValueError):
            gcont(Tensor(rng.normal(size=(4, 7))))

    def test_cluster_validation(self, rng):
        with pytest.raises(ValueError):
            GCont(5, 0, rng)

    def test_linear_in_features(self, rng):
        gcont = GCont(4, 2, rng)
        h = rng.normal(size=(6, 4))
        np.testing.assert_allclose(
            gcont(Tensor(h)).data, h @ gcont.transform.data
        )


class TestMOA:
    def test_rows_are_distributions(self, rng):
        moa = MOA(4, rng)
        content = Tensor(rng.normal(size=(9, 4)))
        m = moa(content)
        assert m.shape == (9, 4)
        np.testing.assert_allclose(m.data.sum(axis=1), np.ones(9))

    def test_cluster_count_checked(self, rng):
        moa = MOA(4, rng)
        with pytest.raises(ValueError):
            moa(Tensor(rng.normal(size=(9, 5))))

    def test_relaxation_modes(self, rng):
        content = Tensor(rng.normal(size=(9, 4)))
        for mode in ("project", "pad"):
            m = MOA(4, rng, relaxation=mode)(content)
            np.testing.assert_allclose(m.data.sum(axis=1), np.ones(9))
        with pytest.raises(ValueError):
            MOA(4, rng, relaxation="truncate-magic")

    def test_project_relaxation_permutation_invariant(self, rng):
        moa = MOA(4, rng, relaxation="project")
        content = rng.normal(size=(9, 4))
        perm = rng.permutation(9)
        m = moa(Tensor(content)).data
        m_perm = moa(Tensor(content[perm])).data
        np.testing.assert_allclose(m_perm, m[perm], atol=1e-10)

    def test_pad_mode_pads_when_small(self, rng):
        # N < N': columns are zero-padded; just verify it runs and
        # normalises.
        moa = MOA(6, rng, relaxation="pad")
        m = moa(Tensor(rng.normal(size=(3, 6))))
        np.testing.assert_allclose(m.data.sum(axis=1), np.ones(3))

    def test_claim3_padding_validity(self, rng):
        """Paper Claim 3: zero-padding the shorter vector does not change
        the attention score when the extra `a` entries multiply zeros."""
        n, n_prime = 4, 6  # N < N'
        row = Tensor(rng.normal(size=n_prime))
        col = Tensor(rng.normal(size=n))  # cluster column in R^N
        a_full = rng.normal(size=n_prime + n_prime)
        # Pad col to N' with zeros: extra entries of `a` see only zeros.
        col_padded = Tensor(np.concatenate([col.data, np.zeros(n_prime - n)]))
        score_padded = concat_score(Tensor(a_full), row, col_padded)
        # Unpadded score with the matching prefix of `a`.
        a_prefix = np.concatenate([a_full[:n_prime], a_full[n_prime : n_prime + n]])
        score_raw = leaky_relu(
            Tensor(a_prefix) @ concat([row, col], axis=0)
        )
        np.testing.assert_allclose(score_padded.data, score_raw.data, atol=1e-12)


class TestGumbelSoftSample:
    def test_rows_normalised_before_symmetrisation(self, rng):
        adj = Tensor(np.abs(rng.normal(size=(5, 5))) + 0.1)
        out = gumbel_soft_sample(adj, tau=0.1, rng=None)
        # Symmetrised average of two row-stochastic matrices.
        np.testing.assert_allclose(out.data, out.data.T)
        np.testing.assert_allclose(out.data.sum(), 5.0, rtol=1e-6)

    def test_low_temperature_sharpens(self, rng):
        adj = Tensor(np.abs(rng.normal(size=(6, 6))) + 0.1)
        sharp = gumbel_soft_sample(adj, tau=0.05, rng=None).data
        soft = gumbel_soft_sample(adj, tau=5.0, rng=None).data
        assert sharp.max() > soft.max()  # closer to one-hot

    def test_noise_only_with_rng(self, rng):
        adj = Tensor(np.abs(rng.normal(size=(4, 4))) + 0.1)
        det1 = gumbel_soft_sample(adj, rng=None).data
        det2 = gumbel_soft_sample(adj, rng=None).data
        np.testing.assert_array_equal(det1, det2)
        noisy1 = gumbel_soft_sample(adj, rng=np.random.default_rng(1)).data
        noisy2 = gumbel_soft_sample(adj, rng=np.random.default_rng(2)).data
        assert not np.allclose(noisy1, noisy2)

    def test_single_cluster_passthrough(self):
        adj = Tensor(np.zeros((1, 1)))
        out = gumbel_soft_sample(adj)
        np.testing.assert_array_equal(out.data, adj.data)


class TestGraphCoarsening:
    def test_algorithm1_shapes(self, rng, small_graph):
        module = GraphCoarsening(5, 3, rng)
        inputs = (small_graph.adjacency, Tensor(small_graph.features))
        adj2, h2, _ = module(*inputs)
        m = module.select(*inputs).s
        assert adj2.shape == (3, 3)
        assert h2.shape == (3, 5)
        assert m.shape == (8, 3)

    def test_cluster_formation_equations(self, rng, small_graph):
        # With soft sampling off, H' and A' follow Eq. 17-18 exactly.
        module = GraphCoarsening(5, 3, rng, soft_sampling=False)
        inputs = (small_graph.adjacency, Tensor(small_graph.features))
        adj2, h2, _ = module(*inputs)
        m = module.select(*inputs).s
        np.testing.assert_allclose(
            h2.data, m.data.T @ small_graph.features, atol=1e-10
        )
        np.testing.assert_allclose(
            adj2.data, m.data.T @ small_graph.adjacency @ m.data, atol=1e-10
        )

    def test_eval_mode_deterministic(self, rng, small_graph):
        module = GraphCoarsening(5, 3, rng)
        module.eval()
        h = Tensor(small_graph.features)
        a1, h1, _ = module(small_graph.adjacency, h)
        a2, h2, _ = module(small_graph.adjacency, h)
        np.testing.assert_array_equal(a1.data, a2.data)

    def test_train_mode_stochastic(self, rng, small_graph):
        module = GraphCoarsening(5, 3, rng)
        module.train()
        h = Tensor(small_graph.features)
        a1, _, _ = module(small_graph.adjacency, h)
        a2, _, _ = module(small_graph.adjacency, h)
        assert not np.allclose(a1.data, a2.data)

    def test_gradients_reach_gcont_and_moa(self, rng, small_graph):
        module = GraphCoarsening(5, 3, rng)
        adj2, h2, _ = module(small_graph.adjacency, Tensor(small_graph.features))
        (h2.sum() + adj2.sum()).backward()
        for name, p in module.named_parameters():
            assert p.grad is not None, name


class TestHierarchicalEmbedder:
    def _embedder(self, rng, sizes=(3, 1)):
        return build_hap_embedder(5, 8, list(sizes), rng)

    def test_level_count_and_dims(self, rng, small_graph):
        emb = self._embedder(rng)
        levels = emb.embed_levels(small_graph.adjacency, Tensor(small_graph.features))
        assert len(levels) == 2
        assert all(level.shape == (8,) for level in levels)
        assert emb.out_features == 8

    def test_permutation_invariance_of_embedding(self, rng, small_graph):
        emb = self._embedder(rng)
        emb.eval()
        out = emb(small_graph.adjacency, Tensor(small_graph.features)).data
        perm = rng.permutation(8)
        pg = small_graph.permute(perm)
        out_perm = emb(pg.adjacency, Tensor(pg.features)).data
        np.testing.assert_allclose(out_perm, out, atol=1e-8)

    def test_same_model_handles_any_graph_size(self, rng):
        # Generalisation across sizes (Table 7's enabling property).
        emb = self._embedder(rng)
        emb.eval()
        for n in (5, 12, 40):
            g = random_connected(n, 0.3, np.random.default_rng(n))
            feats = Tensor(np.random.default_rng(n).normal(size=(n, 5)))
            assert emb(g.adjacency, feats).shape == (8,)

    def test_mismatched_levels_rejected(self, rng):
        enc = GNNEncoder([5, 8], rng)
        with pytest.raises(ValueError):
            HierarchicalEmbedder([enc], [])
        with pytest.raises(ValueError):
            HierarchicalEmbedder([], [])

    def test_hap_pooling_adapter(self, rng, small_graph):
        """HAP's module is itself a Coarsening: no adapter wraps it."""
        pool = GraphCoarsening(5, 2, rng)
        assert isinstance(pool, Coarsening)
        adj2, h2, _ = pool(small_graph.adjacency, Tensor(small_graph.features))
        assert adj2.shape == (2, 2) and h2.shape == (2, 5)

    def test_build_validation(self, rng):
        with pytest.raises(ValueError):
            build_hap_embedder(5, 8, [], rng)

    def test_all_parameters_trained_end_to_end(self, rng, small_graph):
        emb = self._embedder(rng, sizes=(3, 2))
        levels = emb.embed_levels(small_graph.adjacency, Tensor(small_graph.features))
        total = levels[0].sum() + levels[1].sum()
        total.backward()
        missing = [n for n, p in emb.named_parameters() if p.grad is None]
        # The final level's MOA column parameters may legitimately see
        # zero gradient only if that level has a single cluster (softmax
        # over one column is constant); with 2 clusters everything trains.
        assert missing == []
