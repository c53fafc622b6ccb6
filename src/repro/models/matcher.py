"""Graph matching model (paper Eq. 22-23).

A shared embedder maps both graphs of a pair to hierarchical
representations; per-level Euclidean distances are converted to
similarity scores ``s_k = exp(-scale * d_k)`` and optimised with the
hierarchical pairwise cross-entropy.  At prediction time the pair is
declared matching when the level-averaged similarity exceeds the
decision threshold (0.5 by default, tunable on validation pairs via
:meth:`MatchingModel.calibrate_threshold`).
"""

from __future__ import annotations

import numpy as np

from repro.data.matching import MatchingPair
from repro.models.common import euclidean_distance, graph_inputs
from repro.nn.losses import pairwise_matching_loss
from repro.nn.module import Module
from repro.tensor import Tensor, no_grad


class MatchingModel(Module):
    """Siamese hierarchical matcher over a shared embedder."""

    def __init__(
        self, embedder: Module, scale: float = 0.5, hierarchical: bool = True
    ):
        super().__init__()
        self.embedder = embedder
        self.scale = scale
        # hierarchical=False ablates Eq. 23 down to the final level only
        # (benchmarked in test_ablation_design_choices.py).
        self.hierarchical = hierarchical
        # Decision threshold on the similarity score.  The paper notes
        # the score scale is "sensitive to different range of distances
        # and is determined by the real application graph data"; we keep
        # the loss scale fixed and calibrate the threshold on validation
        # data instead (see :meth:`calibrate_threshold`).
        self.threshold = 0.5

    def distances(self, pair: MatchingPair) -> list[Tensor]:
        """Per-level Euclidean distances between the pair's embeddings.

        Siamese embedders are applied to each graph independently;
        pair-conditioned embedders (GMN exposes ``embed_pair``) see both
        graphs at once.
        """
        adj1, feats1, _ = graph_inputs(pair.g1)
        adj2, feats2, _ = graph_inputs(pair.g2)
        if hasattr(self.embedder, "embed_pair"):
            levels1, levels2 = self.embedder.embed_pair(adj1, feats1, adj2, feats2)
        else:
            levels1 = self.embedder.embed_levels(adj1, feats1)
            levels2 = self.embedder.embed_levels(adj2, feats2)
        distances = [
            euclidean_distance(e1, e2) for e1, e2 in zip(levels1, levels2)
        ]
        return distances if self.hierarchical else distances[-1:]

    def loss(self, pair: MatchingPair) -> Tensor:
        return pairwise_matching_loss(self.distances(pair), pair.label, self.scale)

    def similarity(self, pair: MatchingPair) -> float:
        """Level-averaged similarity score in (0, 1)."""
        with no_grad():
            dists = self.distances(pair)
            scores = [float(np.exp(-self.scale * d.item())) for d in dists]
        return float(np.mean(scores))

    def predict(self, pair: MatchingPair) -> int:
        return int(self.similarity(pair) > self.threshold)

    def calibrate_threshold(self, pairs) -> float:
        """Pick the similarity threshold maximising accuracy on ``pairs``.

        Candidate thresholds are midpoints between consecutive observed
        scores (plus the 0.5 default).  Returns the chosen threshold.
        """
        scored = [(self.similarity(p), p.label) for p in pairs]
        scores = sorted(s for s, _ in scored)
        candidates = [0.5] + [(a + b) / 2.0 for a, b in zip(scores, scores[1:])]
        best_threshold, best_accuracy = 0.5, -1.0
        for threshold in candidates:
            correct = sum(1 for s, lab in scored if int(s > threshold) == lab)
            if correct / len(scored) > best_accuracy:
                best_accuracy = correct / len(scored)
                best_threshold = threshold
        self.threshold = best_threshold
        return best_threshold

    def forward(self, pair: MatchingPair) -> float:
        return self.similarity(pair)
