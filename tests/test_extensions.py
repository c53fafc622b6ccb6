"""Extensions: multi-head MOA, attributed datasets, NaN guard."""

import numpy as np
import pytest

from repro.core import MOA, build_hap_embedder
from repro.data import ATTRIBUTE_DIM, make_attributed_like
from repro.graph import is_connected
from repro.tensor import Tensor
from repro.training import TrainConfig, fit
from tests.moa_reference import moa_logits


class TestMultiHeadMOA:
    def test_assignment_still_row_stochastic(self, rng):
        moa = MOA(4, rng, num_heads=3)
        content = Tensor(rng.normal(size=(9, 4)))
        m = moa(content)
        assert m.shape == (9, 4)
        np.testing.assert_allclose(m.data.sum(axis=1), np.ones(9))

    def test_single_head_equals_head_zero(self, rng):
        moa = MOA(4, rng, num_heads=1)
        content = Tensor(rng.normal(size=(6, 4)))
        from repro.tensor import softmax

        np.testing.assert_allclose(
            moa(content).data, softmax(moa_logits(moa, content, 0), axis=1).data
        )

    def test_heads_differ(self, rng):
        moa = MOA(4, rng, num_heads=2)
        content = Tensor(rng.normal(size=(6, 4)))
        l0 = moa_logits(moa, content, 0).data
        l1 = moa_logits(moa, content, 1).data
        assert not np.allclose(l0, l1)

    def test_head_count_validation(self, rng):
        with pytest.raises(ValueError):
            MOA(4, rng, num_heads=0)

    def test_multihead_hap_end_to_end(self, rng, small_graph):
        embedder = build_hap_embedder(5, 8, [3, 1], rng, num_heads=4)
        out = embedder(small_graph.adjacency, Tensor(small_graph.features))
        assert out.shape == (8,)
        out.sum().backward()
        missing = [n for n, p in embedder.named_parameters() if p.grad is None]
        # Final level softmax over 1 cluster blocks attention gradients
        # there; every other parameter must train.
        assert all("coarsening1" in name for name in missing)

    def test_multihead_permutation_invariant(self, rng, small_graph):
        embedder = build_hap_embedder(5, 8, [3, 1], rng, num_heads=2)
        embedder.eval()
        base = embedder(small_graph.adjacency, Tensor(small_graph.features)).data
        perm = rng.permutation(8)
        pg = small_graph.permute(perm)
        out = embedder(pg.adjacency, Tensor(pg.features)).data
        np.testing.assert_allclose(base, out, atol=1e-8)


class TestAttributedDataset:
    def test_shapes_and_labels(self, rng):
        graphs = make_attributed_like(20, rng, num_nodes=15)
        assert len(graphs) == 20
        assert {g.label for g in graphs} == {0, 1}
        for g in graphs:
            assert g.features.shape == (15, ATTRIBUTE_DIM)
            assert is_connected(g)

    def test_attributes_are_continuous(self, rng):
        graphs = make_attributed_like(5, rng)
        feats = np.vstack([g.features for g in graphs])
        # Not one-hot: many distinct values per column.
        assert len(np.unique(feats[:, 0])) > 10

    def test_layouts_differ_geometrically(self, rng):
        graphs = make_attributed_like(40, rng)
        spread = {0: [], 1: []}
        for g in graphs:
            # Ring points have near-constant radius; blob points do not.
            radii = np.linalg.norm(g.features[:, :2], axis=1)
            spread[g.label].append(radii.std())
        assert np.mean(spread[0]) < np.mean(spread[1])


class TestNaNGuard:
    def test_training_raises_on_divergence(self, rng):
        from repro.nn import Linear
        from repro.nn.module import Module
        from repro.tensor import log

        class Exploding(Module):
            def __init__(self):
                super().__init__()
                self.lin = Linear(1, 1, rng)

            def loss(self, example):
                # log of a negative number -> NaN immediately.
                return log(self.lin(Tensor(np.array([[example]]))).sum() - 1e9)

        with np.errstate(invalid="ignore"):
            with pytest.raises(FloatingPointError):
                fit(Exploding(), [1.0, 2.0], rng, TrainConfig(epochs=1))
