"""Unified rank-generic API: one ``forward`` per module serves both the
single-graph ``(N, F)`` path and the padded-batch ``(B, N, F)`` path.

These tests pin down that

- plain ``__call__`` on padded inputs reproduces the per-graph loop,
- the old ``forward_batched`` / ``*_batched`` aliases are gone,
- batch-shaped containers (``PaddedBatch`` for the embedder,
  ``GraphBatch`` and plain graph lists for the classifier) are accepted
  directly by the model-level APIs.
"""

import numpy as np
import pytest

from repro.core import MOA, GraphCoarsening, build_hap_embedder
from repro.data import batch_graphs, pad_graphs
from repro.core.gcont import GCont
from repro.gnn import GATLayer, GCNLayer, GINLayer, GNNEncoder, SAGELayer
from repro.graph import random_connected
from repro.models.classifier import GraphClassifier
from repro.tensor import Tensor

pytestmark = pytest.mark.equivalence

TOL = 1e-6
SIZES = (4, 9, 6)
F = 5

LAYERS = {
    "gcn": lambda rng: GCNLayer(F, 7, rng),
    "gat": lambda rng: GATLayer(F, 7, rng),
    "gin": lambda rng: GINLayer(F, 7, rng),
    "sage": lambda rng: SAGELayer(F, 7, rng),
}


@pytest.fixture
def graphs(rng):
    out = []
    for i, n in enumerate(SIZES):
        g = random_connected(n, 0.5, rng)
        out.append(g.with_features(rng.normal(size=(n, F))).with_label(i % 2))
    return out


def _assert_valid_rows_match(graphs, single_fn, batched_data, tol=TOL):
    for i, g in enumerate(graphs):
        out = single_fn(g)
        dev = np.abs(out.data - batched_data[i, : g.num_nodes]).max()
        assert dev < tol, (i, dev)


class TestLayerDispatch:
    @pytest.mark.parametrize("conv", sorted(LAYERS))
    def test_call_dispatches_on_rank(self, rng, graphs, conv):
        layer = LAYERS[conv](np.random.default_rng(0))
        batch = pad_graphs(graphs)
        out_b = layer(batch.adjacency, Tensor(batch.features))
        assert out_b.ndim == 3
        _assert_valid_rows_match(
            graphs,
            lambda g: layer(g.adjacency, Tensor(g.features)),
            out_b.data,
        )

    @pytest.mark.parametrize("conv", sorted(LAYERS))
    def test_forward_batched_alias_warns_and_matches(self, conv):
        """The alias is gone; ``__call__`` is the only entry point."""
        layer = LAYERS[conv](np.random.default_rng(0))
        assert not hasattr(layer, "forward_batched")


class TestEncoderDispatch:
    def test_call_dispatches_on_rank(self, rng, graphs):
        encoder = GNNEncoder([F, 6, 6], np.random.default_rng(0))
        batch = pad_graphs(graphs)
        out_b = encoder(batch.adjacency, Tensor(batch.features))
        _assert_valid_rows_match(
            graphs,
            lambda g: encoder(g.adjacency, Tensor(g.features)),
            out_b.data,
        )

    def test_alias_warns(self):
        """The alias is gone; ``__call__`` is the only entry point."""
        encoder = GNNEncoder([F, 6], np.random.default_rng(0))
        assert not hasattr(encoder, "forward_batched")


class TestCoreModuleDispatch:
    def test_gcont_accepts_both_ranks(self, rng):
        gcont = GCont(F, 3, np.random.default_rng(0))
        single = rng.normal(size=(7, F))
        stacked = np.stack([single, single])
        out_s = gcont(Tensor(single))
        out_b = gcont(Tensor(stacked))
        assert out_b.shape == (2, 7, 3)
        np.testing.assert_allclose(out_s.data, out_b.data[0], atol=1e-12)

    def test_moa_defaults_full_mask_on_padded_input(self, rng):
        moa = MOA(4, np.random.default_rng(0))
        content = rng.normal(size=(2, 6, 4))
        out_default = moa(Tensor(content))
        out_explicit = moa(Tensor(content), np.ones((2, 6)))
        np.testing.assert_array_equal(out_default.data, out_explicit.data)

    def test_coarsening_returns_one_triple_on_both_ranks(self, rng, graphs):
        module = GraphCoarsening(F, 3, np.random.default_rng(0))
        module.eval()
        batch = pad_graphs(graphs)
        single = module(graphs[0].adjacency, Tensor(graphs[0].features))
        assert len(single) == 3 and single[2] is None
        batched = module(batch.adjacency, Tensor(batch.features), batch.mask)
        adj_b, h_b, mask_b = batched
        assert adj_b.shape == (len(graphs), 3, 3)
        assert h_b.shape == (len(graphs), 3, F)
        # Every graph owns exactly N' clusters: the output has no padding.
        assert mask_b is None
        np.testing.assert_allclose(single[1].data, h_b.data[0], atol=TOL)

    def test_coarsen_method_aliases(self):
        """The core modules' batched aliases are gone: ``__call__``,
        ``attention``, ``select`` and ``embed_levels`` take 3-D input, and
        HAP's module is a Coarsening with no ``coarsen`` of its own."""
        module = GraphCoarsening(F, 3, np.random.default_rng(0))
        removed = [
            (GCont(F, 3, np.random.default_rng(0)), ["forward_batched"]),
            (MOA(3, np.random.default_rng(0)), ["forward_batched"]),
            (
                module,
                ["attention_batched", "coarsen_batched", "forward_batched", "coarsen"],
            ),
            (
                build_hap_embedder(F, 6, [3, 2], np.random.default_rng(0)),
                ["embed_levels_batched", "forward_batched"],
            ),
        ]
        for owner, names in removed:
            for name in names:
                assert not hasattr(owner, name), (type(owner).__name__, name)


class TestEmbedderDispatch:
    def _embedder(self, seed=7):
        return build_hap_embedder(F, 6, [3, 2], np.random.default_rng(seed))

    def test_embed_levels_accepts_padded_batch_object(self, rng, graphs):
        emb = self._embedder()
        emb.eval()
        batch = pad_graphs(graphs)
        levels_obj = emb.embed_levels(batch)
        levels_args = emb.embed_levels(batch.adjacency, Tensor(batch.features), batch.mask)
        assert len(levels_obj) == len(levels_args) == 2
        for lo, la in zip(levels_obj, levels_args):
            np.testing.assert_array_equal(lo.data, la.data)

    def test_padded_levels_match_loop(self, rng, graphs):
        emb = self._embedder()
        emb.eval()
        levels_b = emb.embed_levels(pad_graphs(graphs))
        for i, g in enumerate(graphs):
            levels = emb.embed_levels(g.adjacency, Tensor(g.features))
            for lv, lv_b in zip(levels, levels_b):
                assert np.abs(lv.data - lv_b.data[i]).max() < TOL

    def test_forward_dispatches_and_aliases_warn(self, rng, graphs):
        emb = self._embedder()
        emb.eval()
        batch = pad_graphs(graphs)
        out = emb(batch.adjacency, Tensor(batch.features), batch.mask)
        assert out.shape == (len(graphs), 6)


class TestModelDispatch:
    def _model(self, seed=3):
        emb = build_hap_embedder(F, 6, [3, 2], np.random.default_rng(seed))
        return GraphClassifier(emb, 2, np.random.default_rng(seed + 1))

    def test_call_accepts_graph_batch_and_list(self, rng, graphs):
        model = self._model()
        model.eval()
        batch = batch_graphs(graphs)
        logits_b = model(batch)
        logits_list = model(graphs)
        np.testing.assert_array_equal(logits_b.data, logits_list.data)
        assert logits_b.shape == (len(graphs), 2)
        for i, g in enumerate(graphs):
            single = model(g)
            assert single.shape == (2,)
            assert np.abs(single.data - logits_b.data[i]).max() < TOL


class TestNoInternalAliasCallers:
    def test_src_never_calls_deprecated_aliases(self):
        """The aliases exist for external callers only; the library and
        its tools must use the unified entry points."""
        import pathlib

        root = pathlib.Path(__file__).resolve().parent.parent
        offenders = []
        for path in sorted((root / "src").rglob("*.py")) + sorted(
            (root / "tools").glob("*.py")
        ):
            for lineno, line in enumerate(path.read_text().splitlines(), 1):
                code = line.split("#")[0]
                if ".forward_batched(" in code or ".embed_levels_batched(" in code:
                    offenders.append(f"{path.name}:{lineno}")
        assert not offenders, offenders
