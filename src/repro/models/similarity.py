"""Graph similarity learning model (paper Eq. 24).

Given triplets ⟨anchor, left, right⟩ labelled with relative GED, the
model regresses its hierarchical relative distance
``d(anchor, left) - d(anchor, right)`` onto the ground truth.  Accuracy
is the fraction of triplets whose *sign* (which comparison graph is
closer) the model gets right — the same criterion the paper applies to
the conventional GED baselines in Fig. 5.
"""

from __future__ import annotations

from repro.data.triplets import GraphTriplet
from repro.models.common import euclidean_distance, graph_inputs
from repro.nn.losses import triplet_mse_loss
from repro.nn.module import Module
from repro.tensor import Tensor, no_grad


class SimilarityModel(Module):
    """Siamese hierarchical triplet regressor over a shared embedder."""

    def __init__(self, embedder: Module):
        super().__init__()
        self.embedder = embedder

    def _level_distances(
        self, triplet: GraphTriplet
    ) -> tuple[list[Tensor], list[Tensor]]:
        adj_a, feats_a, _ = graph_inputs(triplet.anchor)
        adj_l, feats_l, _ = graph_inputs(triplet.left)
        adj_r, feats_r, _ = graph_inputs(triplet.right)
        if hasattr(self.embedder, "embed_pair"):
            # Pair-conditioned embedders (GMN): embed each comparison
            # jointly with the anchor.
            anchor_l, levels_l = self.embedder.embed_pair(
                adj_a, feats_a, adj_l, feats_l
            )
            anchor_r, levels_r = self.embedder.embed_pair(
                adj_a, feats_a, adj_r, feats_r
            )
            left = [euclidean_distance(a, l) for a, l in zip(anchor_l, levels_l)]
            right = [euclidean_distance(a, r) for a, r in zip(anchor_r, levels_r)]
            return left, right
        levels_a = self.embedder.embed_levels(adj_a, feats_a)
        levels_l = self.embedder.embed_levels(adj_l, feats_l)
        levels_r = self.embedder.embed_levels(adj_r, feats_r)
        left = [euclidean_distance(a, l) for a, l in zip(levels_a, levels_l)]
        right = [euclidean_distance(a, r) for a, r in zip(levels_a, levels_r)]
        return left, right

    def loss(self, triplet: GraphTriplet) -> Tensor:
        left, right = self._level_distances(triplet)
        return triplet_mse_loss(left, right, triplet.relative_ged)

    def relative_distance(self, triplet: GraphTriplet) -> float:
        """Predicted ``d(anchor,left) - d(anchor,right)``, level-averaged."""
        with no_grad():
            left, right = self._level_distances(triplet)
            diffs = [l.item() - r.item() for l, r in zip(left, right)]
        return float(sum(diffs) / len(diffs))

    def predict_closer_to_right(self, triplet: GraphTriplet) -> bool:
        return self.relative_distance(triplet) > 0

    def forward(self, triplet: GraphTriplet) -> float:
        return self.relative_distance(triplet)
