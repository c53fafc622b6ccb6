"""DiffPool (Ying et al., 2018): differentiable hierarchical grouping.

An assignment GNN produces a dense soft-assignment matrix
``S = softmax(GNN_assign(A, H))`` over a fixed number of clusters; the
coarsened graph is ``H' = S^T Z`` and ``A' = S^T A S``.  The auxiliary
link-prediction loss ``||A - S S^T||_F`` and the assignment-entropy
regulariser from the original paper are exposed through
:meth:`auxiliary_loss`, averaged over a padded batch's graphs.
"""

from __future__ import annotations

import numpy as np

from repro.gnn.layers import GCNLayer
from repro.pooling.base import Coarsening, Selection, masked_rows, node_counts
from repro.tensor import Tensor, log, softmax


class DiffPool(Coarsening):
    """Soft cluster assignment to ``num_clusters`` clusters."""

    def __init__(
        self,
        in_features: int,
        num_clusters: int,
        rng: np.random.Generator,
        use_embed_gnn: bool = True,
    ):
        super().__init__()
        if num_clusters < 1:
            raise ValueError("need at least one cluster")
        self.num_clusters = num_clusters
        self.assign_gnn = GCNLayer(in_features, num_clusters, rng, activation="none")
        self.embed_gnn = (
            GCNLayer(in_features, in_features, rng) if use_embed_gnn else None
        )

    def assignment(self, adjacency, h: Tensor, mask=None) -> Tensor:
        """Soft assignment matrix S of shape (..., N, num_clusters)."""
        return masked_rows(softmax(self.assign_gnn(adjacency, h), axis=-1), mask)

    def select(self, adjacency, h: Tensor, mask=None, edge_attr=None) -> Selection:
        s = self.assignment(adjacency, h, mask)
        z = self.embed_gnn(adjacency, h) if self.embed_gnn is not None else None
        # Auxiliary objectives from the original paper, per graph; S and
        # A are zero on padding, so the sums cover only real nodes.
        n = np.asarray(node_counts(h, mask), dtype=np.float64)
        link_residual = adjacency - s @ s.mT
        link_loss = (link_residual * link_residual).sum(axis=(-2, -1)) * Tensor(n**-2.0)
        entropy = -(s * log(s + 1e-12)).sum(axis=(-2, -1)) * Tensor(1.0 / n)
        return Selection(s, h=z, aux=(link_loss + entropy * 0.1).mean())
