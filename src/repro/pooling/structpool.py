"""StructPool (Yuan & Ji, 2020): structured pooling via CRFs.

Cluster assignments are treated as a conditional random field whose
Gibbs energy couples each node's unary preference with the assignments
of its neighbours.  We run the standard mean-field approximation:

    Q^(0)  = softmax(U)
    Q^(t)  = softmax(U + Â Q^(t-1) W_pair)

where U = H W_unary are unary potentials, Â is the (row-normalised)
adjacency and W_pair is a learnable cluster-compatibility matrix.  The
fixed point minimises the (relaxed) Gibbs energy; Q is the assignment
the shared Reduce and Connect use, H' = Q^T H, A' = Q^T A Q.  Padding
rows of a padded batch have zero adjacency, so they send no message,
and their marginals are zeroed.
"""

from __future__ import annotations

import numpy as np

from repro.nn.init import glorot_uniform
from repro.nn.layers import Linear
from repro.nn.module import Parameter
from repro.pooling.base import Coarsening, Selection, masked_rows
from repro.tensor import Tensor, as_tensor, power, softmax


class StructPool(Coarsening):
    """Mean-field CRF assignment to ``num_clusters`` clusters."""

    def __init__(
        self,
        in_features: int,
        num_clusters: int,
        rng: np.random.Generator,
        iterations: int = 3,
    ):
        super().__init__()
        if num_clusters < 1:
            raise ValueError("need at least one cluster")
        if iterations < 0:
            raise ValueError("iterations must be >= 0")
        self.num_clusters = num_clusters
        self.iterations = iterations
        self.unary = Linear(in_features, num_clusters, rng)
        self.pairwise = Parameter(
            glorot_uniform(rng, num_clusters, num_clusters), name="pairwise"
        )

    def assignment(self, adjacency, h: Tensor, mask=None) -> Tensor:
        """Mean-field marginals Q of shape (..., N, num_clusters)."""
        adj = as_tensor(adjacency)
        row_sums = adj.sum(axis=-1) + 1e-8
        adj_norm = adj * power(row_sums, -1.0).reshape(*row_sums.shape, 1)
        unary = self.unary(h)
        q = softmax(unary, axis=-1)
        for _ in range(self.iterations):
            pairwise_message = adj_norm @ q @ self.pairwise
            q = softmax(unary + pairwise_message, axis=-1)
        return masked_rows(q, mask)

    def select(self, adjacency, h: Tensor, mask=None, edge_attr=None) -> Selection:
        return Selection(self.assignment(adjacency, h, mask))
