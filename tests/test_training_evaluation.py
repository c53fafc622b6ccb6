"""Training loop, metrics, t-SNE, silhouette, harness utilities."""

import numpy as np
import pytest

from repro.data import MatchingPair, GraphTriplet, attach_degree_features
from repro.evaluation import format_table, silhouette_score, tsne
from repro.evaluation.harness import prepare_dataset, run_matching
from repro.graph import complete_graph, path_graph, random_connected
from repro.models import zoo
from repro.observe import JSONLLogger, read_run_log
from repro.training import (
    CheckpointManager,
    TrainConfig,
    classification_accuracy,
    fit,
    load_checkpoint,
    matching_accuracy,
    regression_rmse,
    triplet_accuracy,
)
from repro.training.metrics import EVAL_CHUNK


def _toy_dataset(rng):
    graphs = []
    for n in range(5, 9):
        graphs.append(attach_degree_features(complete_graph(n).with_label(1), 8))
        graphs.append(attach_degree_features(path_graph(n).with_label(0), 8))
    return graphs


class TestFit:
    def test_loss_decreases_on_separable_data(self, rng):
        graphs = _toy_dataset(rng)
        model = zoo.make_classifier("SumPool", 8, 2, rng, hidden=8)
        history = fit(model, graphs, rng, TrainConfig(epochs=25, lr=0.02))
        assert history.losses[-1] < history.losses[0]
        assert classification_accuracy(model, graphs) == 1.0

    def test_val_metric_tracked_and_best_restored(self, rng):
        graphs = _toy_dataset(rng)
        model = zoo.make_classifier("SumPool", 8, 2, rng, hidden=8)
        history = fit(
            model,
            graphs,
            rng,
            TrainConfig(epochs=10, lr=0.02),
            val_metric=lambda: classification_accuracy(model, graphs),
        )
        assert len(history.val_metrics) == 10
        assert history.best_epoch >= 0
        assert history.best_metric == max(history.val_metrics)

    def test_early_stopping_halts(self, rng):
        graphs = _toy_dataset(rng)
        model = zoo.make_classifier("SumPool", 8, 2, rng, hidden=8)
        constant_metric = lambda: 0.5  # never improves after epoch 0
        history = fit(
            model,
            graphs,
            rng,
            TrainConfig(epochs=50, lr=0.01, patience=2),
            val_metric=constant_metric,
        )
        assert len(history.val_metrics) < 50

    def test_model_left_in_eval_mode(self, rng):
        graphs = _toy_dataset(rng)
        model = zoo.make_classifier("SumPool", 8, 2, rng, hidden=8)
        fit(model, graphs, rng, TrainConfig(epochs=1))
        assert not model.training

    def test_custom_loss_fn(self, rng):
        graphs = _toy_dataset(rng)
        model = zoo.make_classifier("SumPool", 8, 2, rng, hidden=8)
        calls = []

        def loss_fn(m, example):
            calls.append(1)
            return m.loss(example)

        fit(model, graphs, rng, TrainConfig(epochs=1), loss_fn=loss_fn)
        assert len(calls) == len(graphs)

    def test_passed_loss_fn_wins_over_batch_loss(self, rng):
        graphs = _toy_dataset(rng)
        model = zoo.make_classifier("SumPool", 8, 2, rng, hidden=8)
        calls = []

        def loss_fn(m, example):
            calls.append(1)
            return m.loss(example)

        fit(model, graphs, rng, TrainConfig(epochs=1, batched=True), loss_fn=loss_fn)
        assert len(calls) == len(graphs)


class TestRunLogLossRule:
    """A run log's ``batched`` says whether ``fit`` trained whole
    mini-batches, not what the config asked for."""

    def test_default_classifier_run_logs_batched(self, rng, tmp_path):
        model = zoo.make_classifier("SumPool", 8, 2, rng, hidden=8)
        fit(
            model, _toy_dataset(rng), rng, TrainConfig(epochs=1),
            callbacks=[JSONLLogger(tmp_path / "run.jsonl")],
        )
        assert read_run_log(tmp_path / "run.jsonl")[0]["batched"] is True

    def test_passed_loss_fn_logs_the_per_example_loop(self, rng, tmp_path):
        model = zoo.make_classifier("SumPool", 8, 2, rng, hidden=8)
        config = TrainConfig(epochs=1, checkpoint_dir=str(tmp_path / "ckpt"))
        fit(
            model, _toy_dataset(rng), rng, config,
            loss_fn=lambda m, example: m.loss(example),
            callbacks=[JSONLLogger(tmp_path / "run.jsonl")],
        )
        assert read_run_log(tmp_path / "run.jsonl")[0]["batched"] is False
        # the caller's config, and the checkpoints that record it, are kept
        assert config.batched
        latest = CheckpointManager(tmp_path / "ckpt").latest()
        assert load_checkpoint(latest).config["batched"] is True

    def test_matching_run_logs_the_per_pair_loop(self, tmp_path):
        run_matching(
            "HAP", num_nodes=8, num_pairs=12, epochs=1, hidden=8,
            test_size=4, callbacks=[JSONLLogger(tmp_path / "run.jsonl")],
        )
        assert read_run_log(tmp_path / "run.jsonl")[0]["batched"] is False


class TestMetrics:
    def test_predict_sees_at_most_one_chunk(self):
        class Spy:
            def __init__(self):
                self.sizes = []

            def predict(self, graphs):
                self.sizes.append(len(graphs))
                return np.array([g.label for g in graphs])

        graphs = [path_graph(3).with_label(i % 2) for i in range(2 * EVAL_CHUNK + 5)]
        spy = Spy()
        assert classification_accuracy(spy, graphs) == 1.0
        assert regression_rmse(spy, graphs) == 0.0
        assert spy.sizes == [EVAL_CHUNK, EVAL_CHUNK, 5] * 2

    def test_chunked_accuracy_equals_the_per_graph_count(self):
        rng = np.random.default_rng(4)
        graphs, dim, num_classes = prepare_dataset("IMDB-B", 2 * EVAL_CHUNK + 7, rng)
        model = zoo.make_classifier("HAP", dim, num_classes, rng, hidden=8)
        fit(model, graphs, rng, TrainConfig(epochs=1))
        correct = sum(model.predict(g) == g.label for g in graphs)
        assert classification_accuracy(model, graphs) == correct / len(graphs)

    def test_classification_accuracy_bounds(self, rng):
        graphs = _toy_dataset(rng)
        model = zoo.make_classifier("SumPool", 8, 2, rng, hidden=8)
        acc = classification_accuracy(model, graphs)
        assert 0.0 <= acc <= 1.0
        with pytest.raises(ValueError):
            classification_accuracy(model, [])

    def test_matching_accuracy(self, rng):
        g = attach_degree_features(random_connected(6, 0.4, rng), 8)
        pairs = [MatchingPair(g, g, 1)]
        model = zoo.make_matcher("SumPool", 8, rng, hidden=8)
        model.eval()
        assert matching_accuracy(model, pairs) == 1.0  # identical pair

    def test_triplet_accuracy_skips_ties(self, rng):
        g = attach_degree_features(random_connected(5, 0.4, rng), 8)
        triplets = [
            GraphTriplet(g, g, g, relative_ged=0.0),
            GraphTriplet(g, g, g, relative_ged=1.0),
        ]
        acc = triplet_accuracy(lambda t: True, triplets)
        assert acc == 1.0  # only the non-tie counted
        with pytest.raises(ValueError):
            triplet_accuracy(lambda t: True, [triplets[0]])


class TestTSNE:
    def test_output_shape(self, rng):
        x = rng.normal(size=(20, 10))
        y = tsne(x, rng, iterations=50)
        assert y.shape == (20, 2)
        assert np.all(np.isfinite(y))

    def test_separates_two_far_blobs(self, rng):
        blob1 = rng.normal(size=(15, 5))
        blob2 = rng.normal(size=(15, 5)) + 50.0
        coords = tsne(np.vstack([blob1, blob2]), rng, iterations=250)
        labels = np.array([0] * 15 + [1] * 15)
        assert silhouette_score(coords, labels) > 0.3

    def test_too_few_points_rejected(self, rng):
        with pytest.raises(ValueError):
            tsne(rng.normal(size=(2, 3)), rng)


class TestSilhouette:
    def test_perfect_separation_close_to_one(self):
        points = np.array([[0, 0], [0.1, 0], [10, 10], [10.1, 10]])
        labels = np.array([0, 0, 1, 1])
        assert silhouette_score(points, labels) > 0.9

    def test_mixed_clusters_low(self, rng):
        points = rng.normal(size=(40, 2))
        labels = rng.integers(0, 2, size=40)
        assert abs(silhouette_score(points, labels)) < 0.3

    def test_validations(self, rng):
        with pytest.raises(ValueError):
            silhouette_score(np.zeros((3, 2)), np.zeros(3))
        with pytest.raises(ValueError):
            silhouette_score(np.zeros((3, 2)), np.array([0, 1]))

    def test_singleton_cluster_contributes_zero(self):
        points = np.array([[0.0, 0.0], [5.0, 5.0], [5.1, 5.0]])
        labels = np.array([0, 1, 1])
        score = silhouette_score(points, labels)
        assert np.isfinite(score)


class TestHarnessUtilities:
    def test_prepare_dataset_attaches_features(self, rng):
        graphs, dim, classes = prepare_dataset("IMDB-B", 10, rng)
        assert all(g.features is not None for g in graphs)
        assert graphs[0].features.shape[1] == dim
        assert classes == 2

    def test_prepare_dataset_unknown_name(self, rng):
        with pytest.raises(KeyError):
            prepare_dataset("ENZYMES", 10, rng)

    def test_format_table_renders_percentages(self):
        rows = {"HAP": {"MUTAG": 0.95}, "SumPool": {"MUTAG": 0.894}}
        text = format_table(rows, ["MUTAG"], "Table 3")
        assert "95.00%" in text and "89.40%" in text and "Table 3" in text
