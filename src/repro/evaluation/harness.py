"""Experiment harness: one function per experiment family.

Benchmarks (one per paper table/figure) and examples call into these
runners so every result in EXPERIMENTS.md is regenerated through a
single code path.  Scale knobs (#graphs, epochs, hidden width) default
to values that finish on CPU in seconds-to-minutes while exercising the
same code as the full-scale experiment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.data.datasets import DATASET_BUILDERS
from repro.data.cache import (
    CONSTANT_FEATURE_DIM,
    DEGREE_FEATURE_DIM,
    attach_dataset_features,
)
from repro.data.encoding import (
    attach_constant_features,
    attach_degree_features,
    attach_label_features,
)
from repro.data.matching import MatchingPair, make_matching_dataset
from repro.data.triplets import GraphTriplet, TripletGenerator
from repro.data.splits import scaffold_split, train_val_test_split
from repro.data.datasets import NUM_ATOM_TYPES
from repro.evaluation.separability import silhouette_score
from repro.evaluation.tsne import tsne
from repro.graph.graph import Graph
from repro.models import zoo
from repro.training.metrics import (
    classification_accuracy,
    matching_accuracy,
    regression_mae,
    regression_rmse,
    triplet_accuracy,
)
from repro.training.trainer import TrainConfig, fit


def prepare_dataset(
    name: str, num_graphs: int, rng: np.random.Generator
) -> tuple[list[Graph], int, int | None]:
    """Generate a named dataset with features attached.

    Returns ``(graphs, feature_dim, num_classes)``.  The builder draws
    from the caller's ``rng`` (its stream advances); for a seed-keyed,
    cacheable variant see :func:`repro.data.cache.load_dataset_cached`.
    """
    if name not in DATASET_BUILDERS:
        raise KeyError(f"unknown dataset {name!r}; options: {sorted(DATASET_BUILDERS)}")
    builder, encoding, num_classes = DATASET_BUILDERS[name]
    graphs = builder(num_graphs, rng)
    graphs, dim = attach_dataset_features(graphs, encoding)
    return graphs, dim, num_classes


def dataset_statistics_all(num_graphs: int = 100, seed: int = 0) -> list[dict]:
    """Table 2 rows for every registered dataset (used by the CLI)."""
    from repro.data.datasets import dataset_statistics

    rows = []
    for name, (builder, _, _) in DATASET_BUILDERS.items():
        rng = np.random.default_rng(seed)
        rows.append(dataset_statistics(name, builder(num_graphs, rng)))
    return rows


@dataclass
class ClassificationResult:
    method: str
    dataset: str
    accuracy: float
    model: object
    test_graphs: list[Graph]


def run_classification(
    method: str,
    dataset: str,
    seed: int = 0,
    num_graphs: int = 120,
    epochs: int = 20,
    hidden: int = 16,
    lr: float = 0.01,
    cluster_sizes: tuple[int, ...] = (6, 1),
    test_size: int = 50,
    callbacks=None,
    checkpoint_dir=None,
    checkpoint_every: int = 0,
    resume=None,
    **model_kwargs,
) -> ClassificationResult:
    """Train and test one Table 3 cell (method x dataset).

    Like :func:`run_matching`, evaluation uses a dedicated test set of
    ``test_size`` freshly generated graphs so the metric resolution does
    not depend on the training-set size.  ``checkpoint_dir`` /
    ``checkpoint_every`` / ``resume`` thread through to
    :func:`repro.training.fit` (docs/checkpointing.md).
    """
    rng = np.random.default_rng(seed)
    graphs, dim, num_classes = prepare_dataset(dataset, num_graphs, rng)
    if num_classes is None:
        raise ValueError(f"{dataset} is a GED dataset, not a classification one")
    train, val, _ = train_val_test_split(graphs, rng, ratios=(0.85, 0.1, 0.05))
    test_rng = np.random.default_rng(seed + 991)
    test, _, _ = prepare_dataset(dataset, test_size, test_rng)
    model = zoo.make_classifier(
        method, dim, num_classes, rng,
        hidden=hidden, cluster_sizes=cluster_sizes, **model_kwargs,
    )
    config = TrainConfig(
        epochs=epochs, lr=lr,
        checkpoint_dir=checkpoint_dir, checkpoint_every=checkpoint_every,
    )
    fit(
        model,
        train,
        rng,
        config,
        val_metric=lambda: classification_accuracy(model, val),
        callbacks=callbacks,
        resume=resume,
    )
    accuracy = classification_accuracy(model, test)
    return ClassificationResult(method, dataset, accuracy, model, test)


@dataclass
class RegressionResult:
    method: str
    dataset: str
    rmse: float
    mae: float
    #: held-out RMSE of predicting the training-target mean everywhere —
    #: the floor a trained model must beat to carry any signal
    baseline_rmse: float
    model: object
    test_graphs: list[Graph]


def run_regression(
    method: str = "HAP",
    dataset: str = "ESOL",
    seed: int = 0,
    num_graphs: int = 120,
    epochs: int = 20,
    hidden: int = 16,
    lr: float = 0.01,
    cluster_sizes: tuple[int, ...] = (6, 1),
    conv: str = "gin",
    callbacks=None,
    checkpoint_dir=None,
    checkpoint_every: int = 0,
    resume=None,
    **model_kwargs,
) -> RegressionResult:
    """Train and test one molecular property-prediction run.

    The drug-discovery workload (docs/molecular.md): a float target per
    molecule, bond-type edge features conditioning the level-0 encoder
    and coarsening, scaffold-grouped splits (whole chemotypes held out),
    validation RMSE minimised (``metric_mode="min"``), and the held-out
    RMSE reported next to the mean-predictor baseline it must beat.
    ``conv`` defaults to ``"gin"`` because plain GCN layers cannot
    condition on edge features.
    """
    rng = np.random.default_rng(seed)
    graphs, dim, num_classes = prepare_dataset(dataset, num_graphs, rng)
    if num_classes != 0:
        raise ValueError(f"{dataset} is not a regression dataset")
    train, val, test = scaffold_split(graphs)
    edge_features = max(g.num_edge_features for g in graphs)
    model = zoo.make_classifier(
        method, dim, 0, rng,
        hidden=hidden, cluster_sizes=cluster_sizes, conv=conv,
        task="regression", edge_features=edge_features, **model_kwargs,
    )
    config = TrainConfig(
        epochs=epochs, lr=lr, metric_mode="min",
        checkpoint_dir=checkpoint_dir, checkpoint_every=checkpoint_every,
    )
    fit(
        model,
        train,
        rng,
        config,
        val_metric=lambda: regression_rmse(model, val),
        callbacks=callbacks,
        resume=resume,
    )
    rmse = regression_rmse(model, test)
    mae = regression_mae(model, test)
    train_mean = float(np.mean([float(g.label) for g in train]))
    test_targets = np.array([float(g.label) for g in test], dtype=np.float64)
    baseline_rmse = float(np.sqrt(np.mean((test_targets - train_mean) ** 2)))
    return RegressionResult(method, dataset, rmse, mae, baseline_rmse, model, test)


def run_matching(
    method: str,
    num_nodes: int = 20,
    seed: int = 0,
    num_pairs: int = 80,
    epochs: int = 15,
    hidden: int = 16,
    lr: float = 0.01,
    cluster_sizes: tuple[int, ...] = (6, 1),
    test_pairs: Sequence[MatchingPair] | None = None,
    test_size: int = 30,
    callbacks=None,
    checkpoint_dir=None,
    checkpoint_every: int = 0,
    resume=None,
    **model_kwargs,
) -> float:
    """Train one Table 4 / Table 7 cell and return test accuracy.

    A dedicated test set of ``test_size`` freshly generated pairs keeps
    the metric stable regardless of the training budget; ``test_pairs``
    overrides it (used by the Table 7 generalisation study, which tests
    on larger graphs than trained).
    """
    rng = np.random.default_rng(seed)
    pairs = make_matching_dataset(num_pairs, num_nodes, rng)
    pairs = [_pair_with_features(p) for p in pairs]
    train, val, _ = train_val_test_split(pairs, rng, ratios=(0.85, 0.1, 0.05))
    if test_pairs is not None:
        test = [_pair_with_features(p) for p in test_pairs]
    else:
        test_rng = np.random.default_rng(seed + 991)
        test = [
            _pair_with_features(p)
            for p in make_matching_dataset(test_size, num_nodes, test_rng)
        ]
    model = zoo.make_matcher(
        method, DEGREE_FEATURE_DIM, rng,
        hidden=hidden, cluster_sizes=cluster_sizes, **model_kwargs,
    )
    config = TrainConfig(
        epochs=epochs, lr=lr,
        checkpoint_dir=checkpoint_dir, checkpoint_every=checkpoint_every,
    )
    fit(
        model,
        train,
        rng,
        config,
        val_metric=lambda: matching_accuracy(model, val),
        callbacks=callbacks,
        resume=resume,
    )
    model.calibrate_threshold(val)
    return matching_accuracy(model, test)


def _pair_with_features(pair: MatchingPair) -> MatchingPair:
    return MatchingPair(
        attach_degree_features(pair.g1, DEGREE_FEATURE_DIM),
        attach_degree_features(pair.g2, DEGREE_FEATURE_DIM),
        pair.label,
    )


def _triplet_with_features(
    triplet: GraphTriplet, encoding: str
) -> GraphTriplet:
    attach: Callable[[Graph], Graph]
    if encoding == "label":
        attach = lambda g: attach_label_features(g, NUM_ATOM_TYPES)  # noqa: E731
    elif encoding == "degree":
        attach = lambda g: attach_degree_features(g, DEGREE_FEATURE_DIM)  # noqa: E731
    else:
        attach = lambda g: attach_constant_features(g, CONSTANT_FEATURE_DIM)  # noqa: E731
    return GraphTriplet(
        attach(triplet.anchor),
        attach(triplet.left),
        attach(triplet.right),
        triplet.relative_ged,
    )


def make_similarity_task(
    dataset: str,
    seed: int = 0,
    pool_size: int = 24,
    num_triplets: int = 120,
) -> tuple[list[GraphTriplet], list[GraphTriplet], TripletGenerator, int]:
    """Build GED-labelled train/test triplets for AIDS/LINUX-like data.

    Returns ``(train_triplets, test_triplets, generator, feature_dim)``;
    triplets carry attached features, the generator's graphs do not.
    """
    rng = np.random.default_rng(seed)
    builder, encoding, _ = DATASET_BUILDERS[dataset]
    graphs = builder(pool_size, rng)
    generator = TripletGenerator(graphs)
    triplets = generator.sample(num_triplets, rng)
    featured = [_triplet_with_features(t, encoding) for t in triplets]
    split = int(0.8 * len(featured))
    dim = NUM_ATOM_TYPES if encoding == "label" else (
        DEGREE_FEATURE_DIM if encoding == "degree" else CONSTANT_FEATURE_DIM
    )
    return featured[:split], featured[split:], generator, dim


def run_similarity(
    method: str,
    dataset: str,
    seed: int = 0,
    pool_size: int = 24,
    num_triplets: int = 120,
    epochs: int = 15,
    hidden: int = 16,
    lr: float = 0.01,
    cluster_sizes: tuple[int, ...] = (4, 1),
    callbacks=None,
    checkpoint_dir=None,
    checkpoint_every: int = 0,
    resume=None,
    **model_kwargs,
) -> float:
    """Train one Fig. 5 / Table 5 similarity cell; returns triplet accuracy."""
    rng = np.random.default_rng(seed + 1)
    train, test, _, dim = make_similarity_task(dataset, seed, pool_size, num_triplets)
    model = zoo.make_similarity(
        method, dim, rng, hidden=hidden, cluster_sizes=cluster_sizes, **model_kwargs
    )
    config = TrainConfig(
        epochs=epochs, lr=lr,
        checkpoint_dir=checkpoint_dir, checkpoint_every=checkpoint_every,
    )
    fit(model, train, rng, config, callbacks=callbacks, resume=resume)
    return triplet_accuracy(model.predict_closer_to_right, test)


def run_simgnn_similarity(
    dataset: str,
    seed: int = 0,
    pool_size: int = 24,
    num_triplets: int = 120,
    epochs: int = 15,
    hidden: int = 16,
    lr: float = 0.01,
    use_hap_pooling: bool = False,
    cluster_sizes: tuple[int, ...] = (4, 1),
    callbacks=None,
) -> float:
    """Fig. 5's SimGNN / SimGNN-HAP rows.

    SimGNN is trained the way its paper trains it — regressing the
    *absolute* pair similarity ``exp(-nGED)`` on the two anchor pairs of
    each training triplet — then evaluated on relative (triplet)
    accuracy, the mismatch the HAP paper highlights.
    """
    rng = np.random.default_rng(seed + 1)
    train, test, _, dim = make_similarity_task(dataset, seed, pool_size, num_triplets)
    model = zoo.make_simgnn(
        dim, rng, hidden=hidden, use_hap_pooling=use_hap_pooling,
        cluster_sizes=cluster_sizes,
    )

    def loss_fn(m, triplet: GraphTriplet):
        ged_left = exact_pair_ged(triplet.anchor, triplet.left)
        ged_right = exact_pair_ged(triplet.anchor, triplet.right)
        return m.pair_loss(triplet.anchor, triplet.left, ged_left) + m.pair_loss(
            triplet.anchor, triplet.right, ged_right
        )

    # Featured triplets lost their identity link to the generator's
    # graphs, so recompute (and memoise) pair GEDs directly.
    from repro.graph.edit_distance import exact_ged

    cache: dict[tuple[int, int], float] = {}

    def exact_pair_ged(g1: Graph, g2: Graph) -> float:
        key = (id(g1), id(g2))
        if key not in cache:
            cache[key] = exact_ged(g1, g2)
        return cache[key]

    config = TrainConfig(epochs=epochs, lr=lr)
    fit(model, train, rng, config, loss_fn=loss_fn, callbacks=callbacks)
    return triplet_accuracy(model.predict_closer_to_right, test)


def ged_triplet_accuracy(
    algorithm: Callable[[Graph, Graph], float],
    triplets: Sequence[GraphTriplet],
) -> float:
    """Fig. 5's conventional-GED baselines: sign agreement of a GED algo."""
    def closer_to_right(triplet: GraphTriplet) -> bool:
        left = algorithm(triplet.anchor, triplet.left)
        right = algorithm(triplet.anchor, triplet.right)
        return left - right > 0

    return triplet_accuracy(closer_to_right, triplets)


def run_tsne_study(
    model, graphs: Sequence[Graph], rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, float]:
    """Embed graphs with a trained classifier and project with t-SNE.

    Returns ``(coordinates, labels, silhouette)`` — the quantitative
    content of the paper's Figs. 4 and 6.
    """
    embeddings = np.stack([model.embed(g) for g in graphs])
    labels = np.array([g.label for g in graphs])
    coords = tsne(embeddings, rng)
    return coords, labels, silhouette_score(coords, labels)


def format_table(
    rows: dict[str, dict[str, float]], columns: list[str], title: str
) -> str:
    """Render a {row -> {column -> value}} mapping as an aligned table."""
    width = max(len(name) for name in rows) + 2
    lines = [title, "-" * len(title)]
    header = " " * width + "".join(f"{c:>12}" for c in columns)
    lines.append(header)
    for name, values in rows.items():
        cells = "".join(
            f"{values.get(c, float('nan')) * 100:>11.2f}%" for c in columns
        )
        lines.append(f"{name:<{width}}" + cells)
    return "\n".join(lines)
