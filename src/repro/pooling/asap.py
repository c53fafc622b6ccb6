"""ASAP pooling (Ranjan et al., 2020), dense re-implementation.

Every node seeds a cluster over its 1-hop ego network; a master
attention (the cluster's max-pooled content attending over members)
produces member weights; cluster fitness is scored with a LEConv-style
local-extremum convolution; the top ``ceil(ratio * N)`` clusters
survive.  The assignment is ``S = alpha^T`` restricted to them, so the
shared Reduce gives ``H' = S^T (H W)`` gated by fitness and Connect
gives ``A' = S^T A S``.

The paper's criticism — that ASAP still groups within a fixed 1-hop
receptive field — is visible directly in ``member_mask``.
"""

from __future__ import annotations

import numpy as np

from repro.nn.init import glorot_uniform
from repro.nn.layers import Linear
from repro.nn.module import Parameter
from repro.pooling.base import Coarsening, Selection
from repro.pooling.topk import kept_values, top_k
from repro.tensor import Tensor, leaky_relu, max_along, sigmoid, softmax, where


class ASAP(Coarsening):
    """Adaptive Structure Aware Pooling."""

    def __init__(self, in_features: int, rng: np.random.Generator, ratio: float = 0.5):
        super().__init__()
        if not 0.0 < ratio <= 1.0:
            raise ValueError(f"ratio must be in (0, 1], got {ratio}")
        self.ratio = ratio
        self.transform = Linear(in_features, in_features, rng, bias=False)
        self.att_master = Parameter(
            glorot_uniform(rng, in_features, 1, shape=(in_features,)),
            name="att_master",
        )
        self.att_member = Parameter(
            glorot_uniform(rng, in_features, 1, shape=(in_features,)),
            name="att_member",
        )
        # LEConv-style fitness scoring parameters.
        self.fit_self = Linear(in_features, 1, rng)
        self.fit_neigh = Linear(in_features, 1, rng)

    def select(self, adjacency, h: Tensor, mask=None, edge_attr=None) -> Selection:
        lead, (n, f) = h.shape[:-2], h.shape[-2:]
        # Padding nodes are members of their own (discarded) cluster only.
        member_mask = (np.asarray(adjacency.data) != 0) | np.eye(n, dtype=bool)

        transformed = self.transform(h)  # (..., N, F)
        # Master of cluster i: feature-wise max over its ego network.
        broadcast = transformed.reshape(*lead, 1, n, f)
        neg_inf = Tensor(np.full((1, 1, 1), -1e9))
        masked = where(member_mask[..., None], broadcast, neg_inf)
        masters = max_along(masked, axis=-2)  # (..., N, F)

        # Master-attention weights over members.
        logits = leaky_relu(
            (masters @ self.att_master).reshape(*lead, n, 1)
            + (transformed @ self.att_member).reshape(*lead, 1, n)
        )
        masked_logits = where(member_mask, logits, Tensor(np.full((n, n), -1e9)))
        alpha = softmax(masked_logits, axis=-1)  # (..., N clusters, N members)
        cluster_h = alpha @ transformed  # (..., N, F)

        # LEConv fitness: local extremum against neighbouring clusters.
        degree = member_mask.sum(axis=-1).astype(np.float64)
        neigh_sum = adjacency @ self.fit_neigh(cluster_h)
        fitness = sigmoid(
            self.fit_self(cluster_h) * Tensor(degree[..., None]) - neigh_sum
        ).reshape(*lead, n)

        # S = alpha^T restricted to the surviving clusters: alpha^T P for
        # the one-hot cluster selection P, which also picks their gates.
        keep, out_mask = top_k(fitness.data, mask, self.ratio)
        s = alpha.mT @ keep  # (..., N members, K)
        gate = kept_values(fitness, keep)
        return Selection(s, gate=gate, h=transformed, mask=out_mask)
