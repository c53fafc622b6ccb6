"""MinCutPool (Bianchi et al., 2020) — extension beyond the paper's table.

A continuous relaxation of normalised minCUT: cluster assignments
``S = softmax(MLP(H))`` are regularised by

    L_cut   = -Tr(S^T A S) / Tr(S^T D S)
    L_ortho = || S^T S / ||S^T S||_F  -  I / sqrt(k) ||_F

exposed via :meth:`auxiliary_loss` (averaged over a padded batch's
graphs).  ``L_cut`` reads the Connect output ``S^T A S`` before the
usual diagonal reset of A'.  The degree matrix D is built from the
adjacency's values as a constant, so no gradient reaches a
differentiable adjacency through the denominator.
"""

from __future__ import annotations

import numpy as np

from repro.nn.layers import Linear
from repro.pooling.base import Coarsening, Selection, masked_rows
from repro.tensor import Tensor, softmax, sqrt


class MinCutPool(Coarsening):
    """Spectral-clustering-flavoured pooling to ``num_clusters`` clusters."""

    def __init__(self, in_features: int, num_clusters: int, rng: np.random.Generator):
        super().__init__()
        if num_clusters < 1:
            raise ValueError("need at least one cluster")
        self.num_clusters = num_clusters
        self.assign = Linear(in_features, num_clusters, rng)

    def assignment(self, adjacency, h: Tensor, mask=None) -> Tensor:
        return masked_rows(softmax(self.assign(h), axis=-1), mask)

    def select(self, adjacency, h: Tensor, mask=None, edge_attr=None) -> Selection:
        k = self.num_clusters
        s = self.assignment(adjacency, h, mask)
        degree = Tensor(np.asarray(adjacency.data).sum(axis=-1))
        off_diagonal = Tensor(1.0 - np.eye(k))

        def aux(adj_coarse: Tensor) -> Tensor:
            # Tr(S^T A S) from the Connect output; Tr(S^T D S) = Σ_i d_i |s_i|².
            cut_num = (adj_coarse * Tensor(np.eye(k))).sum(axis=(-2, -1))
            cut_den = ((s * s).sum(axis=-1) * degree).sum(axis=-1) + 1e-9
            cut_loss = -(cut_num / cut_den)
            sts = s.mT @ s
            fro = sqrt((sts * sts).sum(axis=(-2, -1)) + 1e-12)
            residual = sts / fro.reshape(*fro.shape, 1, 1) - Tensor(np.eye(k) / np.sqrt(k))
            ortho_loss = sqrt((residual * residual).sum(axis=(-2, -1)) + 1e-12)
            return (cut_loss + ortho_loss).mean()

        # Zero the coarsened diagonal as in the original formulation.
        return Selection(s, aux=aux, post=lambda adj_coarse: adj_coarse * off_diagonal)
