"""Loop-vs-batched equivalence: the padded dense-batch execution path
must reproduce the per-graph reference bit-for-bit up to float round-off.

For seeded random ragged batches (node counts vary per graph) we assert
that batched forward outputs and loss *gradients* match the per-graph
loop within 1e-6 (observed deviations are ~1e-12) for:

- the GCN / GAT / GIN / SAGE encoders,
- MOA (both relaxations, multi-head),
- the full coarsening module (Eq. 17-19),
- ``HierarchicalEmbedder`` level readouts, on ragged random graphs and
  on the matching (pair graphs) and similarity (AIDS-like molecules)
  regimes,
- ``GraphClassifier`` loss and every parameter gradient, for each conv
  under both the classification and the regression head, and for every
  method of the model zoo, in eval and in train mode (HAP's Gumbel
  noise is drawn in the loop's order on either path);
- train-mode ``fit`` with two sampled HAP levels on the per-graph loop,
  padded batches and CSR: same parameters, same generator state;
- the paper's harness (``run_classification``, a cross-validation
  fold) trains through ``batch_loss``, never the loop.

Also contains the multi-head vectorisation regression test: the
single-pass MOA forward equals the old loop-of-softmaxes formulation.
"""

import numpy as np
import pytest

from repro.core import GraphCoarsening, HierarchicalEmbedder, MOA, build_hap_embedder
from repro.data import (
    attach_degree_features,
    attach_label_features,
    make_aids_like,
    make_imdb_b_like,
    make_matching_dataset,
    pad_graphs,
)
from repro.data.batching import iter_padded_batches
from repro.data.datasets import NUM_ATOM_TYPES
from repro.evaluation import run_classification
from repro.evaluation.crossval import make_fold_tasks, run_fold_task
from repro.gnn import GNNEncoder
from repro.graph import random_connected
from repro.models.classifier import GraphClassifier
from repro.models.zoo import (
    ABLATION_METHODS,
    CLASSIFICATION_METHODS,
    make_classifier,
    make_embedder,
)
from repro.tensor import Tensor, softmax
from repro.training import TrainConfig, fit
from tests.moa_reference import moa_logits

pytestmark = pytest.mark.equivalence

TOL = 1e-6

#: deliberately ragged node counts, including one graph smaller than the
#: cluster count used below (exercises the pad relaxation's zero-pad arm)
RAGGED_SIZES = (3, 7, 12, 5, 9)

#: every method ``make_embedder`` builds: the Table 3 and Table 5 rows
#: plus the MaxPool, MinCutPool and SpectralPool extensions
ZOO_METHODS = sorted(
    set(CLASSIFICATION_METHODS) | set(ABLATION_METHODS)
    | {"MaxPool", "MinCutPool", "SpectralPool"}
)


def _assert_batch_loss_matches_loop(loop_model, batch_model, graphs):
    """Two identical models: ``batch_loss`` of one equals the mean of the
    other's per-graph ``loss`` calls, and so does every parameter
    gradient (a parameter no loss reaches has none on either path)."""
    total = None
    for g in graphs:
        loss = loop_model.loss(g)
        total = loss if total is None else total + loss
    total = total * (1.0 / len(graphs))
    total.backward()

    batched = batch_model.batch_loss(graphs)
    batched.backward()

    assert abs(float(total.data) - float(batched.data)) < TOL
    for (name, p_loop), (_, p_batch) in zip(
        loop_model.named_parameters(), batch_model.named_parameters()
    ):
        assert (p_loop.grad is None) == (p_batch.grad is None), name
        if p_loop.grad is not None:
            dev = np.abs(p_loop.grad - p_batch.grad).max()
            assert dev < TOL, (name, dev)


def _ragged_batch(rng, feat_dim=6, sizes=RAGGED_SIZES):
    graphs = []
    for n in sizes:
        g = random_connected(n, 0.4, rng)
        graphs.append(g.with_features(rng.normal(size=(n, feat_dim))))
    return graphs


class TestEncoderEquivalence:
    @pytest.mark.parametrize("conv", ["gcn", "gat", "gin", "sage"])
    def test_encoder_valid_rows_match_loop(self, rng, conv):
        graphs = _ragged_batch(rng)
        encoder = GNNEncoder([6, 8, 8], np.random.default_rng(0), conv=conv)
        batch = pad_graphs(graphs)
        out_b = encoder(batch.adjacency, Tensor(batch.features))
        for i, g in enumerate(graphs):
            out = encoder(g.adjacency, Tensor(g.features))
            dev = np.abs(out.data - out_b.data[i, : g.num_nodes]).max()
            assert dev < TOL, (conv, i, dev)


class TestMOAEquivalence:
    @pytest.mark.parametrize("relaxation", ["project", "pad"])
    @pytest.mark.parametrize("num_heads", [1, 4])
    def test_assignment_matches_loop(self, rng, relaxation, num_heads):
        n_clusters = 4
        moa = MOA(
            n_clusters,
            np.random.default_rng(0),
            relaxation=relaxation,
            num_heads=num_heads,
        )
        graphs = _ragged_batch(rng, feat_dim=n_clusters)
        contents = [Tensor(g.features) for g in graphs]
        n_max = max(g.num_nodes for g in graphs)
        padded = np.zeros((len(graphs), n_max, n_clusters))
        mask = np.zeros((len(graphs), n_max))
        for i, c in enumerate(contents):
            padded[i, : c.shape[0]] = c.data
            mask[i, : c.shape[0]] = 1.0
        out_b = moa(Tensor(padded), mask)
        for i, c in enumerate(contents):
            out = moa(c)
            n = c.shape[0]
            dev = np.abs(out.data - out_b.data[i, :n]).max()
            assert dev < TOL, (relaxation, num_heads, i, dev)
            # Padding rows carry exactly zero attention mass.
            np.testing.assert_array_equal(
                out_b.data[i, n:], np.zeros((n_max - n, n_clusters))
            )

    def test_multihead_vectorisation_regression(self, rng):
        """The single-pass multi-head forward equals the previous
        formulation: average of per-head row-softmaxed logit matrices."""
        moa = MOA(5, np.random.default_rng(3), num_heads=4)
        content = Tensor(rng.normal(size=(9, 5)))
        vectorised = moa(content).data
        reference = None
        for head in range(moa.num_heads):
            probs = softmax(moa_logits(moa, content, head=head), axis=1)
            reference = probs if reference is None else reference + probs
        reference = reference.data / moa.num_heads
        np.testing.assert_allclose(vectorised, reference, rtol=0, atol=1e-12)


class TestCoarseningEquivalence:
    @pytest.mark.parametrize("soft_sampling", [False, True])
    def test_coarsen_matches_loop(self, rng, soft_sampling):
        graphs = _ragged_batch(rng)
        module = GraphCoarsening(
            6, 3, np.random.default_rng(0), soft_sampling=soft_sampling
        )
        module.eval()  # deterministic tempered softmax, no gumbel noise
        batch = pad_graphs(graphs)
        inputs = (batch.adjacency, Tensor(batch.features), batch.mask)
        adj_b, h_b, _ = module(*inputs)
        m_b = module.select(*inputs).s
        assert adj_b.shape == (len(graphs), 3, 3)
        assert h_b.shape == (len(graphs), 3, 6)
        for i, g in enumerate(graphs):
            adj, h, _ = module(g.adjacency, Tensor(g.features))
            m = module.select(g.adjacency, Tensor(g.features)).s
            assert np.abs(adj.data - adj_b.data[i]).max() < TOL
            assert np.abs(h.data - h_b.data[i]).max() < TOL
            assert np.abs(m.data - m_b.data[i, : g.num_nodes]).max() < TOL


class TestFullModelEquivalence:
    def _models(self, seed, conv="gcn", task="classification", **kwargs):
        emb = build_hap_embedder(6, 8, [4, 2], np.random.default_rng(seed),
                                 conv=conv, **kwargs)
        num_classes = 0 if task == "regression" else 2
        return GraphClassifier(
            emb, num_classes, np.random.default_rng(seed + 1), task=task
        )

    def _regime(self, rng, regime):
        """``(embedder, graphs)``: ragged random graphs through a HAP
        classifier's embedder for a conv name, or a task's own graphs."""
        if regime == "matching":  # ragged pair graphs, degree features
            pairs = make_matching_dataset(4, 10, rng)
            graphs = [attach_degree_features(g) for p in pairs for g in (p.g1, p.g2)]
            return build_hap_embedder(16, 8, [5, 2], np.random.default_rng(1)), graphs
        if regime == "similarity":  # AIDS-like molecules, label features
            graphs = [
                attach_label_features(g, NUM_ATOM_TYPES) for g in make_aids_like(8, rng)
            ]
            embedder = build_hap_embedder(
                NUM_ATOM_TYPES, 8, [3, 1], np.random.default_rng(1)
            )
            return embedder, graphs
        return self._models(11, conv=regime).embedder, _ragged_batch(rng)

    @pytest.mark.parametrize("regime", ["gcn", "gat", "matching", "similarity"])
    def test_embed_levels_match_loop(self, rng, regime):
        embedder, graphs = self._regime(rng, regime)
        embedder.eval()
        batch = pad_graphs(graphs)
        levels_b = embedder.embed_levels(
            batch.adjacency, Tensor(batch.features), batch.mask
        )
        for i, g in enumerate(graphs):
            levels = embedder.embed_levels(g.adjacency, Tensor(g.features))
            for k, (lv, lv_b) in enumerate(zip(levels, levels_b)):
                dev = np.abs(lv.data - lv_b.data[i]).max()
                assert dev < TOL, (regime, i, k, dev)

    def test_levels_on_two_generators_draw_in_loop_order(self, rng):
        """Train mode: levels 0 and 2 share one generator, level 1 has
        its own; on a padded batch each still draws graph by graph."""

        def embedder():
            shared = np.random.default_rng(2)
            return HierarchicalEmbedder(
                [GNNEncoder([6, 8], np.random.default_rng(0))]
                + [GNNEncoder([8, 8], np.random.default_rng(1)) for _ in range(2)],
                [GraphCoarsening(8, 4, shared),
                 GraphCoarsening(8, 3, np.random.default_rng(3)),
                 GraphCoarsening(8, 2, shared)],
            )

        loop, padded = embedder(), embedder()
        graphs = _ragged_batch(rng)
        levels_b = padded.embed_levels(pad_graphs(graphs))
        for i, g in enumerate(graphs):
            levels = loop.embed_levels(g.adjacency, Tensor(g.features))
            for k, (lv, lv_b) in enumerate(zip(levels, levels_b)):
                dev = np.abs(lv.data - lv_b.data[i]).max()
                assert dev < TOL, (i, k, dev)
        for c_loop, c_padded in zip(loop.coarsenings, padded.coarsenings):
            assert c_loop.rng.bit_generator.state == c_padded.rng.bit_generator.state

    def _assert_loss_and_gradients_match(self, graphs, seed, **kwargs):
        """The padded ``batch_loss`` equals the mean of per-graph
        ``loss`` calls, and so does every parameter gradient; every HAP
        parameter receives one."""
        loop_model = self._models(seed, **kwargs)
        batch_model = self._models(seed, **kwargs)
        loop_model.eval()
        batch_model.eval()
        _assert_batch_loss_matches_loop(loop_model, batch_model, graphs)
        for name, p in loop_model.named_parameters():
            assert p.grad is not None, name

    def test_loss_and_gradients_match_loop(self, rng):
        graphs = [g.with_label(int(i % 2)) for i, g in enumerate(_ragged_batch(rng))]
        self._assert_loss_and_gradients_match(graphs, 21)

    @pytest.mark.parametrize(
        "conv, task, extra",
        [
            pytest.param(conv, task, {}, id=f"{conv}-{task}")
            for conv in ("gcn", "gat", "gin", "sage")
            for task in ("classification", "regression")
        ]
        + [
            pytest.param(
                "gcn",
                "classification",
                {"relaxation": "pad", "num_heads": 3},
                id="gcn-classification-pad-3heads",
            )
        ],
    )
    def test_loss_and_gradients_match_loop_across_paths(self, rng, conv, task, extra):
        graphs = _ragged_batch(rng)
        if task == "regression":
            targets = rng.normal(size=len(graphs))
            graphs = [g.with_label(float(t)) for g, t in zip(graphs, targets)]
        else:
            graphs = [g.with_label(i % 2) for i, g in enumerate(graphs)]
        self._assert_loss_and_gradients_match(
            graphs, 51, conv=conv, task=task, **extra
        )

    def test_multihead_pad_relaxation_end_to_end(self, rng):
        graphs = [g.with_label(int(i % 2)) for i, g in enumerate(_ragged_batch(rng))]
        loop_model = self._models(31, relaxation="pad", num_heads=3)
        batch_model = self._models(31, relaxation="pad", num_heads=3)
        loop_model.eval()
        batch_model.eval()
        total = None
        for g in graphs:
            loss = loop_model.loss(g)
            total = loss if total is None else total + loss
        total = total * (1.0 / len(graphs))
        batched = batch_model.batch_loss(graphs)
        assert abs(float(total.data) - float(batched.data)) < TOL

    def test_predict_on_a_list_matches_per_graph_predict(self, rng):
        graphs = [g.with_label(0) for g in _ragged_batch(rng)]
        model = self._models(41)
        model.eval()
        batched = model.predict(graphs)
        loop = np.array([model.predict(g) for g in graphs])
        np.testing.assert_array_equal(batched, loop)

    def test_predict_batch_is_a_deprecated_alias_of_predict(self, rng):
        """The alias and the ``graphs=`` keyword are gone: ``predict``
        takes the batch positionally."""
        graphs = [g.with_label(0) for g in _ragged_batch(rng)]
        model = self._models(41)
        assert not hasattr(model, "predict_batch")
        with pytest.raises(TypeError):
            model.predict(graphs=graphs)

    def test_iter_padded_batches_covers_dataset(self, rng):
        graphs = [attach_degree_features(g) for g in make_imdb_b_like(7, rng)]
        chunks = list(iter_padded_batches(graphs, batch_size=3))
        assert [c.batch_size for c in chunks] == [3, 3, 1]
        assert sum(int(c.num_nodes.sum()) for c in chunks) == sum(
            g.num_nodes for g in graphs
        )


def _labelled_ragged_batch(rng):
    return [g.with_label(i % 2) for i, g in enumerate(_ragged_batch(rng))]


def _zoo_classifier(method):
    return make_classifier(
        method, 6, 2, np.random.default_rng(61), hidden=8, cluster_sizes=(4, 2)
    )


class TestEveryClassifierTrainsBatched:
    @pytest.mark.parametrize(
        "method, training",
        [(m, training) for m in ZOO_METHODS for training in (False, True)],
        ids=lambda value: {False: "eval", True: "train"}.get(value, value),
    )
    def test_batch_loss_and_gradients_match_loop(self, rng, method, training):
        loop_model, batch_model = _zoo_classifier(method), _zoo_classifier(method)
        loop_model.train(training)
        batch_model.train(training)
        _assert_batch_loss_matches_loop(
            loop_model, batch_model, _labelled_ragged_batch(rng)
        )

    @pytest.mark.parametrize("method", ZOO_METHODS)
    def test_fit_runs_batched(self, rng, method):
        model = _zoo_classifier(method)
        history = fit(
            model,
            _labelled_ragged_batch(rng),
            np.random.default_rng(0),
            TrainConfig(epochs=1, batch_size=3, batched=True),
        )
        assert len(history.losses) == 1 and np.isfinite(history.losses[0])


class TestTrainModeFit:
    """Train-mode ``fit`` with two sampled HAP levels (clusters (6, 3))
    gives the same parameters on the per-graph loop and the padded
    default, and leaves the shared generator (shuffling and Gumbel
    noise) in the same state.  A CSR level 0 draws the dense path's
    noise too (tests/test_sparse_equivalence.py)."""

    @staticmethod
    def _fit(config):
        graphs = [
            attach_degree_features(g)
            for g in make_imdb_b_like(16, np.random.default_rng(2))
        ]
        rng = np.random.default_rng(7)
        embedder = make_embedder(
            "HAP", graphs[0].features.shape[1], 8, rng, (6, 3), "gcn"
        )
        model = GraphClassifier(embedder, 2, rng)
        fit(model, graphs, rng, config)
        return model.state_dict(), rng.bit_generator.state

    def test_loop_and_padded_paths_agree(self):
        loop, loop_state = self._fit(
            TrainConfig(epochs=2, batch_size=4, batched=False)
        )
        padded, padded_state = self._fit(TrainConfig(epochs=2, batch_size=4))
        assert padded_state == loop_state
        for name, value in loop.items():
            dev = np.abs(padded[name] - value).max()
            assert dev < 1e-9, (name, dev)


class TestHarnessTrainsBatched:
    """The paper's harness cannot fall back onto the per-graph loop
    unnoticed: each mini-batch is one ``batch_loss`` call."""

    def test_run_classification(self, loss_calls):
        run_classification(
            "HAP", "IMDB-B", num_graphs=30, epochs=2, hidden=8,
            cluster_sizes=(4, 2), test_size=10, callbacks=[loss_calls],
        )
        assert loss_calls.steps > 0
        assert loss_calls.calls == {"batch_loss": loss_calls.steps, "loss": 0}

    def test_cross_validation_fold(self, loss_calls):
        task = make_fold_tasks(
            "HAP", "IMDB-B", folds=3, num_graphs=30, epochs=2, hidden=8,
            cluster_sizes=(4, 2),
        )[0]
        run_fold_task(task)
        batches = -(-len(task.train_idx) // TrainConfig().batch_size)
        assert loss_calls.calls == {"batch_loss": task.epochs * batches, "loss": 0}


class TestPaddedBatchValidation:
    def test_requires_features(self, rng):
        g = random_connected(4, 0.5, rng)
        with pytest.raises(ValueError, match="no node features"):
            pad_graphs([g])

    def test_rejects_mixed_feature_dims(self, rng):
        g1 = random_connected(4, 0.5, rng).with_features(np.ones((4, 3)))
        g2 = random_connected(4, 0.5, rng).with_features(np.ones((4, 5)))
        with pytest.raises(ValueError, match="feature dimensions"):
            pad_graphs([g1, g2])

    def test_rejects_empty_and_small_pad_to(self, rng):
        with pytest.raises(ValueError):
            pad_graphs([])
        g = random_connected(6, 0.5, rng).with_features(np.ones((6, 2)))
        with pytest.raises(ValueError, match="pad_to"):
            pad_graphs([g], pad_to=4)

    def test_labels_only_when_all_present(self, rng):
        g1 = random_connected(3, 0.6, rng).with_features(np.ones((3, 2)))
        batch = pad_graphs([g1.with_label(1), g1.with_label(0)])
        np.testing.assert_array_equal(batch.labels, [1, 0])
        assert pad_graphs([g1.with_label(1), g1]).labels is None
