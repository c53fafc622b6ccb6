"""Molecular workload gate (``pytest -m molecular``, docs/molecular.md).

Three contracts:

- **Edge-conditioned equivalence** — for every conv that supports bond
  features (GIN, SAGE, GAT), the per-graph path (each graph's CSR with
  its ``(nnz, Fe)`` bond rows) and the ragged batch (the block-diagonal
  CSR with the concatenated rows) produce the same predictions *and*
  the same parameter gradients (< 1e-6) on ESOL-like molecular graphs,
  in eval mode with Gumbel soft-sampling disabled (train-mode draws are
  pinned across paths by ``tests/test_ragged_batch.py``; the
  conditioned layers against a dense oracle by
  ``tests/test_edge_conditioning.py``).
- **Regression workload** — the ESOL-like builder, scaffold split,
  regression head and metric_mode="min" best-checkpointing behave end
  to end, including resume, ``run_regression`` trains each mini-batch
  through one ``batch_loss`` call, and a seeded run meets a quality
  floor.
- **The lint rule** — ``no-dropped-edge-attr`` flags a GNN forward
  that accepts ``edge_attr`` and silently ignores it.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from repro.data import make_esol_like, scaffold_split
from repro.evaluation import cross_validate_regression, run_regression
from repro.evaluation.harness import prepare_dataset
from repro.models import zoo
from repro.training import TrainConfig, fit
from repro.training.checkpoint import CheckpointManager, load_checkpoint

pytestmark = pytest.mark.molecular

CONVS = ["gin", "sage", "gat"]

#: the seeded quality-floor run and the test RMSE it recorded
QUALITY_FLOOR_RUN = dict(
    method="HAP", dataset="ESOL", num_graphs=150, epochs=30, hidden=16,
    lr=0.01, seed=0,
)
RECORDED_RMSE = 0.3291


def _molecular_setup(conv, num_graphs=6, seed=3, hidden=8):
    graphs, dim, _ = prepare_dataset(
        "ESOL", num_graphs, np.random.default_rng(seed)
    )
    edge_features = max(g.num_edge_features for g in graphs)
    model = zoo.make_classifier(
        "HAP", dim, 0, np.random.default_rng(0),
        hidden=hidden, cluster_sizes=(4, 1), conv=conv,
        task="regression", edge_features=edge_features, soft_sampling=False,
    )
    model.eval()
    return graphs, model


def _grads(model, compute):
    model.zero_grad()
    compute().backward()
    return {
        name: param.grad.copy()
        for name, param in model.named_parameters()
        if param.grad is not None
    }


def _max_dev(grads_a, grads_b):
    assert grads_a.keys() == grads_b.keys()
    return max(
        np.abs(grads_a[name] - grads_b[name]).max() for name in grads_a
    )


class TestEdgeConditionedEquivalence:
    """A ragged batch of bond-featured molecules matches the per-graph
    loop, and bond features reach the forward. (``test_padded_*`` keep
    the names they had when the batch path padded its graphs.)"""

    @pytest.mark.parametrize("conv", CONVS)
    def test_padded_outputs_match(self, conv):
        graphs, model = _molecular_setup(conv)
        loop = np.array([model.predict(g) for g in graphs])
        ragged = np.asarray(model.predict(graphs))
        assert np.abs(loop - ragged).max() < 1e-6, conv

    @pytest.mark.parametrize("conv", CONVS)
    def test_padded_gradients_match(self, conv):
        graphs, model = _molecular_setup(conv)

        def loop_loss():
            total = None
            for g in graphs:
                loss = model.loss(g)
                total = loss if total is None else total + loss
            return total * (1.0 / len(graphs))

        loop = _grads(model, loop_loss)
        ragged = _grads(model, lambda: model.batch_loss(graphs))
        assert _max_dev(loop, ragged) < 1e-6, conv

    @pytest.mark.parametrize("conv", CONVS)
    def test_edge_features_change_the_prediction(self, conv):
        """Bond features must reach the forward — a model that drops
        them predicts identically on zeroed edge features."""
        graphs, model = _molecular_setup(conv)
        graph = graphs[0]
        zeroed = graph.with_edge_features(np.zeros_like(graph.edge_features))
        assert abs(model.predict(graph) - model.predict(zeroed)) > 1e-8

    def test_gcn_rejects_edge_features_loudly(self):
        with pytest.raises(ValueError, match="edge"):
            zoo.make_classifier(
                "HAP", 4, 0, np.random.default_rng(0),
                hidden=8, conv="gcn", task="regression", edge_features=3,
            )


class TestEsolWorkload:
    def test_builder_is_deterministic_and_regression_shaped(self):
        a = make_esol_like(20, np.random.default_rng(5))
        b = make_esol_like(20, np.random.default_rng(5))
        assert len(a) == 20
        for ga, gb in zip(a, b):
            assert isinstance(ga.label, float)
            assert ga.label == gb.label
            np.testing.assert_array_equal(ga.adjacency, gb.adjacency)
            np.testing.assert_array_equal(ga.edge_features, gb.edge_features)
            assert "scaffold" in ga.meta

    def test_bond_features_are_one_hot_on_edges(self):
        for g in make_esol_like(12, np.random.default_rng(2)):
            on_edges = g.edge_features[g.adjacency > 0]
            assert np.all(on_edges.sum(axis=-1) == 1.0)
            off_edges = g.edge_features[g.adjacency == 0]
            assert np.all(off_edges == 0.0)

    def test_scaffold_split_is_disjoint_and_grouped(self):
        graphs = make_esol_like(60, np.random.default_rng(1))
        train, val, test = scaffold_split(graphs)
        assert len(train) + len(val) + len(test) == len(graphs)
        assert len(val) >= 1 and len(test) >= 1
        scaffolds = [
            {g.meta["scaffold"] for g in split} for split in (train, val, test)
        ]
        assert not (scaffolds[0] & scaffolds[1])
        assert not (scaffolds[0] & scaffolds[2])
        assert not (scaffolds[1] & scaffolds[2])

    def test_run_regression_smoke(self, tmp_path):
        result = run_regression(
            num_graphs=40, epochs=2, hidden=8, cluster_sizes=(4, 1),
        )
        assert np.isfinite(result.rmse) and np.isfinite(result.mae)
        assert np.isfinite(result.baseline_rmse)
        assert isinstance(result.model.predict(result.test_graphs[0]), float)

    def test_run_regression_trains_batched(self, loss_calls):
        """Each mini-batch of the molecular harness is one ``batch_loss``
        call; the per-graph loop never runs."""
        run_regression(
            num_graphs=40, epochs=2, hidden=8, cluster_sizes=(4, 1),
            callbacks=[loss_calls],
        )
        assert loss_calls.steps > 0
        assert loss_calls.calls == {"batch_loss": loss_calls.steps, "loss": 0}

    def test_seeded_run_meets_the_quality_floor(self):
        """A model that stops learning from bond features stays
        numerically "correct" on every equivalence suite; only a
        predictive-quality floor catches it.  The run is deterministic:
        it must beat the train-mean predictor outright and stay within
        25% of the test RMSE it recorded."""
        result = run_regression(**QUALITY_FLOOR_RUN)
        assert result.rmse < result.baseline_rmse
        assert result.rmse <= 1.25 * RECORDED_RMSE, result.rmse

    def test_cross_validate_regression_smoke(self):
        result = cross_validate_regression(
            "HAP", "ESOL", folds=3, num_graphs=24, epochs=1,
            hidden=8, cluster_sizes=(4, 1),
        )
        assert len(result.fold_rmse) == 3
        assert np.isfinite(result.mean_rmse) and np.isfinite(result.mean_mae)


@pytest.mark.checkpoint
class TestRegressionBestCheckpoint:
    """metric_mode='min' drives best-weight restoration and
    ``best.npz`` — the regression counterpart of accuracy-max."""

    def _fit_scripted(self, tmp_path, metrics, epochs, metric_mode,
                      model=None, rng=None, resume=None):
        graphs, dim, _ = prepare_dataset(
            "ESOL", 8, np.random.default_rng(4)
        )
        if model is None:
            model = zoo.make_classifier(
                "HAP", dim, 0, np.random.default_rng(0),
                hidden=6, cluster_sizes=(3, 1), conv="gin",
                task="regression",
                edge_features=max(g.num_edge_features for g in graphs),
            )
        rng = rng or np.random.default_rng(9)
        sequence = iter(metrics)
        history = fit(
            model, graphs, rng,
            TrainConfig(
                epochs=epochs, lr=0.01, batch_size=4,
                checkpoint_dir=str(tmp_path / "ckpt"),
                metric_mode=metric_mode,
            ),
            val_metric=lambda: next(sequence),
            resume=resume,
        )
        return model, rng, history

    def test_min_mode_tracks_the_lowest_val_metric(self, tmp_path):
        _, _, history = self._fit_scripted(
            tmp_path, metrics=[5.0, 3.0, 4.0], epochs=3, metric_mode="min"
        )
        assert history.best_epoch == 1
        assert history.best_metric == 3.0
        best = CheckpointManager(tmp_path / "ckpt").best()
        assert best is not None
        assert load_checkpoint(best).best_metric == 3.0

    def test_max_mode_is_unchanged(self, tmp_path):
        _, _, history = self._fit_scripted(
            tmp_path, metrics=[5.0, 3.0, 4.0], epochs=3, metric_mode="max"
        )
        assert history.best_epoch == 0
        assert history.best_metric == 5.0

    def test_resumed_regression_run_keeps_the_min_best(self, tmp_path):
        """Resume must not let a *higher* (worse) later RMSE displace
        the recorded best — the bug a max-only comparison would have."""
        model, rng, _ = self._fit_scripted(
            tmp_path, metrics=[5.0, 3.0], epochs=2, metric_mode="min"
        )
        latest = CheckpointManager(tmp_path / "ckpt").latest()
        assert latest is not None
        _, _, history = self._fit_scripted(
            tmp_path, metrics=[4.0, 6.0], epochs=4, metric_mode="min",
            model=model, rng=rng, resume=latest,
        )
        assert history.best_metric == 3.0
        assert history.best_epoch == 1
        assert history.val_metrics == [5.0, 3.0, 4.0, 6.0]

    def test_invalid_metric_mode_is_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="metric_mode"):
            self._fit_scripted(
                tmp_path, metrics=[1.0], epochs=1, metric_mode="down"
            )


class TestDroppedEdgeAttrLint:
    """tools/lint.py forbids GNN forwards that drop edge_attr."""

    @pytest.fixture()
    def lint(self):
        sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
        import lint

        yield lint
        sys.path.pop(0)

    def test_flags_a_forward_that_never_reads_edge_attr(self, lint, tmp_path):
        offender = tmp_path / "src" / "repro" / "gnn" / "thing.py"
        offender.parent.mkdir(parents=True)
        offender.write_text(
            "def forward(self, adjacency, h, mask=None, edge_attr=None):\n"
            "    return adjacency @ h\n"
        )
        findings = lint.lint_file(offender)
        assert len(findings) == 1
        assert "no-dropped-edge-attr" in findings[0]

    def test_consuming_the_operand_passes(self, lint, tmp_path):
        clean = tmp_path / "src" / "repro" / "gnn" / "thing.py"
        clean.parent.mkdir(parents=True)
        clean.write_text(
            "def forward(self, adjacency, h, mask=None, edge_attr=None):\n"
            "    if edge_attr is not None:\n"
            "        adjacency = gate(adjacency, edge_attr)\n"
            "    return adjacency @ h\n"
        )
        assert lint.lint_file(clean) == []

    def test_raising_counts_as_consuming(self, lint, tmp_path):
        clean = tmp_path / "src" / "repro" / "gnn" / "thing.py"
        clean.parent.mkdir(parents=True)
        clean.write_text(
            "def forward(self, adjacency, h, mask=None, edge_attr=None):\n"
            "    if edge_attr is not None:\n"
            "        raise ValueError('unsupported')\n"
            "    return adjacency @ h\n"
        )
        assert lint.lint_file(clean) == []

    def test_other_packages_are_exempt(self, lint, tmp_path):
        elsewhere = tmp_path / "src" / "repro" / "models" / "thing.py"
        elsewhere.parent.mkdir(parents=True)
        elsewhere.write_text(
            "def forward(self, adjacency, h, mask=None, edge_attr=None):\n"
            "    return adjacency @ h\n"
        )
        assert lint.lint_file(elsewhere) == []

    def test_gnn_package_is_currently_clean(self, lint):
        src = Path(__file__).resolve().parent.parent / "src" / "repro" / "gnn"
        findings = [
            finding for finding in lint.lint_paths([src])
            if "no-dropped-edge-attr" in finding
        ]
        assert findings == []
