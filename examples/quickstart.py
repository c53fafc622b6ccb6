"""Quickstart: hierarchical graph classification with HAP.

Builds a tiny molecule dataset, trains a HAP classifier, and inspects
the coarsening pipeline (GCont -> MOA -> cluster formation) on a single
graph.  Runs in well under a minute on CPU.

    python examples/quickstart.py
"""

import numpy as np

from repro.core import build_hap_embedder
from repro.data import train_val_test_split
from repro.evaluation.harness import prepare_dataset
from repro.models import GraphClassifier
from repro.models.common import graph_inputs
from repro.tensor import no_grad
from repro.training import TrainConfig, classification_accuracy, fit


def main() -> None:
    rng = np.random.default_rng(0)

    # 1. Data: a MUTAG-like molecule dataset with one-hot atom features.
    graphs, feature_dim, num_classes = prepare_dataset("MUTAG", 120, rng)
    train, val, test = train_val_test_split(graphs, rng)
    print(f"dataset: {len(graphs)} molecules, {feature_dim}-d features, "
          f"{num_classes} classes")

    # 2. Model: two HAP coarsening modules (paper default), each preceded
    #    by a two-layer GCN node & cluster embedding stage.
    embedder = build_hap_embedder(
        in_features=feature_dim,
        hidden=24,
        cluster_sizes=[6, 1],  # coarsen N -> 6 clusters -> 1 vector
        rng=rng,
    )
    model = GraphClassifier(embedder, num_classes, rng)
    print(f"model: {model.num_parameters()} trainable parameters")

    # 3. Train with Adam and per-epoch validation tracking.
    history = fit(
        model,
        train,
        rng,
        TrainConfig(epochs=50, lr=0.01),
        val_metric=lambda: classification_accuracy(model, val),
    )
    print(f"best validation accuracy {history.best_metric:.2%} "
          f"at epoch {history.best_epoch}")

    # 4. Evaluate.
    accuracy = classification_accuracy(model, test)
    print(f"test accuracy: {accuracy:.2%}")

    # 5. Peek inside one coarsening step: the MOA attention matrix M maps
    #    source nodes to target clusters (Eq. 14-15), and the coarsened
    #    graph follows Eq. 17-18.
    example = test[0]
    adjacency, features, _ = graph_inputs(example)  # the graph's CSR
    coarsening = embedder.coarsenings[0]
    with no_grad():
        h = embedder.encoders[0](adjacency, features)
        adj_coarse, h_coarse, _ = coarsening(adjacency, h)
        attention = coarsening.select(adjacency, h).s
    print(f"\ncoarsening a {example.num_nodes}-node molecule:")
    print(f"  MOA attention M: {attention.shape}  (rows sum to 1)")
    print(f"  coarsened features H': {h_coarse.shape}")
    print(f"  coarsened adjacency A': {adj_coarse.shape}")
    print(f"  strongest cluster assignment of node 0: "
          f"cluster {int(np.argmax(attention.data[0]))} "
          f"(weight {attention.data[0].max():.2f})")


if __name__ == "__main__":
    main()
