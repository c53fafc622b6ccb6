"""GCont: the auto-learned global graph content (paper Eq. 13).

A single learnable linear transformation T ∈ R^{F x N'} converts the
node feature matrix H ∈ R^{N x F} into the content matrix
C = H T ∈ R^{N x N'}: each row corresponds to a node of the source
graph, each column to a cluster of the coarsened target graph.  Because
T depends only on the feature dimension F and the (fixed) target size
N', the same GCont applies to input graphs of any size — this is what
gives HAP its generalisation across graphs with the same form of
features (paper Sec. 6.5.3).
"""

from __future__ import annotations

import numpy as np

from repro.nn.init import glorot_uniform
from repro.nn.module import Module, Parameter
from repro.tensor import Tensor, as_tensor


class GCont(Module):
    """Global graph content extractor ``C = H T``."""

    def __init__(self, in_features: int, num_clusters: int, rng: np.random.Generator):
        super().__init__()
        if num_clusters < 1:
            raise ValueError("need at least one target cluster")
        self.in_features = in_features
        self.num_clusters = num_clusters
        self.transform = Parameter(
            glorot_uniform(rng, in_features, num_clusters), name="transform"
        )

    def forward(self, h: Tensor) -> Tensor:
        """Content matrix: ``(N, F) -> (N, N')`` or, batched,
        ``(B, N, F) -> (B, N, N')``.

        T is applied row-wise, so padded batches pass through unmasked;
        MOA masks padding rows before any cross-node reduction.
        """
        h = as_tensor(h)
        if h.ndim not in (2, 3) or h.shape[-1] != self.in_features:
            raise ValueError(
                f"feature dimension mismatch: GCont expects {self.in_features}, "
                f"got shape {h.shape}"
            )
        return h @ self.transform
