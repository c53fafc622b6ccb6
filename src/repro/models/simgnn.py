"""SimGNN (Bai et al., 2019), re-implemented.

A GCN encoder produces node embeddings; the graph-level embedding uses
the mean-context attention (our :class:`MeanAttPool`, the construction
the paper criticises as "infinitely close to mean pooling"); a Neural
Tensor Network scores the pair of graph embeddings and a small MLP maps
the interaction to a similarity in (0, 1).

Training follows the original recipe: the target for a pair is
``exp(-nGED)`` with the normalised GED ``nGED = GED / ((n1 + n2) / 2)``.
Triplet accuracy (Fig. 5) compares the two pair scores — the paper's
point is precisely that optimising absolute pair similarity transfers
poorly to relative judgements.

The pooling stage is pluggable: passing a HAP hierarchy yields the
SimGNN-HAP variant of Sec. 6.4.
"""

from __future__ import annotations

import numpy as np

from repro.data.triplets import GraphTriplet
from repro.gnn.encoder import GNNEncoder
from repro.models.common import graph_inputs
from repro.nn.layers import Bilinear, Linear
from repro.nn.module import Module
from repro.pooling.universal import MeanAttPool
from repro.tensor import Tensor, no_grad, relu, sigmoid

from repro.graph.graph import Graph


class SimGNN(Module):
    """Pair similarity scorer with NTN interaction."""

    def __init__(
        self,
        in_features: int,
        hidden: int,
        rng: np.random.Generator,
        ntn_features: int = 8,
        pooling: Module | None = None,
    ):
        super().__init__()
        self.encoder = GNNEncoder([in_features, hidden, hidden], rng, conv="gcn")
        self.pooling = pooling
        self.default_readout = (
            MeanAttPool(hidden, rng) if pooling is None else None
        )
        embed_dim = pooling.out_features if pooling is not None else hidden
        self.ntn = Bilinear(embed_dim, ntn_features, rng)
        self.score_mlp = Linear(ntn_features, 1, rng)

    def graph_embedding(self, graph: Graph) -> Tensor:
        adjacency, features, _ = graph_inputs(graph)
        if self.pooling is not None:
            return self.pooling.embed_levels(adjacency, features)[-1]
        h = self.encoder(adjacency, features)
        return self.default_readout(adjacency, h)

    def embed(self, graph: Graph):
        """Uniform single-graph embedding contract (docs/serving.md).

        The vector is the NTN-input graph embedding (attention readout,
        or the final pooling level for SimGNN-HAP), wrapped in a
        versioned :class:`~repro.models.common.EmbeddingResult`.
        """
        from repro.models.common import embedding_result

        with no_grad():
            vector = self.graph_embedding(graph).data.copy()
        return embedding_result(self, graph, vector)

    def pair_score(self, g1: Graph, g2: Graph) -> Tensor:
        """Predicted similarity in (0, 1)."""
        e1 = self.graph_embedding(g1)
        e2 = self.graph_embedding(g2)
        interaction = relu(self.ntn(e1, e2))
        return sigmoid(self.score_mlp(interaction)).reshape(())

    @staticmethod
    def similarity_target(g1: Graph, g2: Graph, ged: float) -> float:
        """``exp(-nGED)``, the original SimGNN regression target."""
        mean_size = (g1.num_nodes + g2.num_nodes) / 2.0
        return float(np.exp(-ged / max(mean_size, 1.0)))

    def pair_loss(self, g1: Graph, g2: Graph, ged: float) -> Tensor:
        """MSE against the exact-similarity target."""
        score = self.pair_score(g1, g2)
        target = self.similarity_target(g1, g2, ged)
        diff = score - Tensor(target)
        return diff * diff

    # ------------------------------------------------------------------
    # Triplet interface (evaluation protocol of Fig. 5)
    # ------------------------------------------------------------------
    def predict_closer_to_right(self, triplet: GraphTriplet) -> bool:
        with no_grad():
            left = self.pair_score(triplet.anchor, triplet.left).item()
            right = self.pair_score(triplet.anchor, triplet.right).item()
        return right > left
