"""Hierarchical HAP embedder and classifier for heterogeneous graphs."""

from __future__ import annotations

import numpy as np

from repro.hetero.coarsen import HeteroGraphCoarsening
from repro.hetero.graph import HeteroGraph
from repro.hetero.layers import HeteroEncoder
from repro.nn.layers import Linear
from repro.nn.losses import cross_entropy
from repro.nn.module import Module
from repro.tensor import Tensor, no_grad, relu, softmax


class HeteroHAPEmbedder(Module):
    """K levels of (RGCN encode -> heterogeneous HAP coarsening), with
    two RGCN layers before every coarsening module as in the paper's
    homogeneous HAP."""

    def __init__(
        self,
        relations: list[str],
        in_features: int,
        hidden: int,
        cluster_sizes: list[int],
        rng: np.random.Generator,
    ):
        super().__init__()
        if not cluster_sizes:
            raise ValueError("need at least one coarsening module")
        self.relations = sorted(relations)
        self.encoders: list[HeteroEncoder] = []
        self.coarsenings: list[HeteroGraphCoarsening] = []
        feat = in_features
        for i, n_prime in enumerate(cluster_sizes):
            encoder = HeteroEncoder(self.relations, [feat, hidden, hidden], rng)
            coarsening = HeteroGraphCoarsening(self.relations, hidden, n_prime, rng)
            setattr(self, f"encoder{i}", encoder)
            setattr(self, f"coarsening{i}", coarsening)
            self.encoders.append(encoder)
            self.coarsenings.append(coarsening)
            feat = hidden
        self.out_features = hidden

    def embed_levels(self, graph: HeteroGraph) -> list[Tensor]:
        if graph.features is None:
            raise ValueError("heterogeneous graph has no node features")
        adjacencies: dict = dict(graph.adjacencies)
        h = Tensor(graph.features)
        levels = []
        for encoder, coarsening in zip(self.encoders, self.coarsenings):
            h = encoder(adjacencies, h)
            adjacencies, h = coarsening(adjacencies, h)
            levels.append(h.mean(axis=0))
        return levels

    def forward(self, graph: HeteroGraph) -> Tensor:
        return self.embed_levels(graph)[-1]


class HeteroGraphClassifier(Module):
    """Heterogeneous classifier head (sum of level readouts + 2 FC)."""

    def __init__(
        self,
        embedder: HeteroHAPEmbedder,
        num_classes: int,
        rng: np.random.Generator,
    ):
        super().__init__()
        if num_classes < 2:
            raise ValueError("need at least two classes")
        self.embedder = embedder
        dim = embedder.out_features
        self.fc1 = Linear(dim, dim, rng)
        self.fc2 = Linear(dim, num_classes, rng)

    def logits(self, graph: HeteroGraph) -> Tensor:
        levels = self.embedder.embed_levels(graph)
        embedding = levels[0]
        for level in levels[1:]:
            embedding = embedding + level
        return self.fc2(relu(self.fc1(embedding)))

    def forward(self, graph: HeteroGraph) -> Tensor:
        return self.logits(graph)

    def loss(self, graph: HeteroGraph) -> Tensor:
        if graph.label is None:
            raise ValueError("graph has no label")
        return cross_entropy(self.logits(graph), graph.label)

    def predict(self, graph: HeteroGraph) -> int:
        with no_grad():
            return int(np.argmax(self.logits(graph).data))

    def predict_proba(self, graph: HeteroGraph) -> np.ndarray:
        with no_grad():
            return softmax(self.logits(graph), axis=-1).data.copy()
