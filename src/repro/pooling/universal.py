"""Flat universal pooling baselines.

- ``SumPool`` / ``MeanPool`` / ``MaxPool``: element-wise aggregators
  (Xu et al. show sum is the most expressive of the three).
- ``GCNConcat``: concatenation of per-layer GCN node representations,
  mean-aggregated over nodes (the paper's "GCN-concat" baseline).
- ``MeanAttPool``: SimGNN-style attention against the mean graph
  context.
- ``GatedAttPool``: GG-NN soft attention (a gate network decides each
  node's relevance).
- ``MeanPoolCoarsening`` / ``MeanAttPoolCoarsening``: the same
  aggregators cast as N -> 1 coarsening operators for the Table 5
  ablation (HAP-MeanPool, HAP-MeanAttPool).

Every readout reduces over the node axis of one graph ``(N, F)`` or of
a padded batch ``(B, N, F)``, ignoring the rows its mask marks as
padding; a ragged batch reaches them as its slots view
(:class:`~repro.pooling.base.Readout`).
"""

from __future__ import annotations

import numpy as np

from repro.gnn.encoder import GNNEncoder
from repro.nn.init import glorot_uniform
from repro.nn.layers import Linear
from repro.nn.module import Parameter
from repro.pooling.base import (
    Coarsening,
    Readout,
    Selection,
    masked_rows,
    node_counts,
    node_mean,
    reduce,
)
from repro.tensor import Tensor, concat, sigmoid, tanh, where


def _weighted_sum(weights: Tensor, h: Tensor, mask) -> Tensor:
    """``Σ_i w_i h_i`` over each graph's real nodes, through the one
    Reduce: ``(..., N)`` weights and ``(..., N, F)`` rows -> ``(..., F)``."""
    lead, (n, f) = h.shape[:-2], h.shape[-2:]
    s = masked_rows(weights.reshape(*lead, n, 1), mask)
    return reduce(Selection(s), h).reshape(*lead, f)


def _zero_adjacency(adj_coarse: Tensor) -> Tensor:
    """The N -> 1 ablations' post-Connect step: a single cluster has no
    edges, so ``A'`` is a constant zero."""
    return Tensor(np.zeros(adj_coarse.shape))


class SumPool(Readout):
    """Element-wise sum over node features."""

    def __init__(self, in_features: int):
        super().__init__()
        self.out_features = in_features

    def readout(self, adjacency, h: Tensor, mask) -> Tensor:
        return masked_rows(h, mask).sum(axis=-2)


class MeanPool(Readout):
    """Element-wise mean over node features."""

    def __init__(self, in_features: int):
        super().__init__()
        self.out_features = in_features

    def readout(self, adjacency, h: Tensor, mask) -> Tensor:
        return node_mean(h, mask)


class MaxPool(Readout):
    """Element-wise max over node features."""

    def __init__(self, in_features: int):
        super().__init__()
        self.out_features = in_features

    def readout(self, adjacency, h: Tensor, mask) -> Tensor:
        if mask is not None:
            h = where(mask[..., None] > 0, h, Tensor(np.full((1, 1), -np.inf)))
        return h.max(axis=-2)


class GCNConcat(Readout):
    """Concatenate every GCN layer's node output, then mean over nodes."""

    reads_adjacency = True

    def __init__(self, encoder: GNNEncoder):
        super().__init__()
        self.encoder = encoder
        self.out_features = sum(layer.out_features for layer in encoder.layers)

    def readout(self, adjacency, h: Tensor, mask) -> Tensor:
        outputs = self.encoder.layer_outputs(adjacency, h)
        return node_mean(concat(outputs, axis=-1), mask)


class MeanAttPool(Readout):
    """SimGNN attention pooling: nodes attend to the mean graph context.

    ``c = mean(H) W``; ``a_i = sigmoid(h_i . c)``; ``h_G = sum_i a_i h_i``.
    """

    def __init__(self, in_features: int, rng: np.random.Generator):
        super().__init__()
        self.out_features = in_features
        self.weight = Parameter(
            glorot_uniform(rng, in_features, in_features), name="weight"
        )

    def attention(self, h: Tensor, mask=None) -> Tensor:
        """Per-node scores ``(..., N)``; padding rows' scores are not
        masked here (the weighted sums mask them)."""
        lead, (n, f) = h.shape[:-2], h.shape[-2:]
        context = node_mean(h, mask) @ self.weight  # (..., F)
        return sigmoid(h @ context.reshape(*lead, f, 1)).reshape(*lead, n)

    def readout(self, adjacency, h: Tensor, mask) -> Tensor:
        return _weighted_sum(self.attention(h, mask), h, mask)


class GatedAttPool(Readout):
    """GG-NN soft attention readout: ``sum_i sigmoid(gate(h_i)) * proj(h_i)``."""

    def __init__(self, in_features: int, rng: np.random.Generator):
        super().__init__()
        self.out_features = in_features
        self.gate = Linear(in_features, 1, rng)
        self.project = Linear(in_features, in_features, rng)

    def readout(self, adjacency, h: Tensor, mask) -> Tensor:
        gates = sigmoid(self.gate(h)).reshape(*h.shape[:-1])
        return _weighted_sum(gates, tanh(self.project(h)), mask)


class MeanPoolCoarsening(Coarsening):
    """N -> 1 coarsening by mean aggregation (HAP-MeanPool ablation)."""

    reads_adjacency = False

    def select(self, adjacency, h: Tensor, mask=None, edge_attr=None) -> Selection:
        counts = np.asarray(node_counts(h, mask), dtype=np.float64)
        s = np.ones(h.shape[:-1] + (1,)) / counts[..., None, None]
        return Selection(masked_rows(Tensor(s), mask), post=_zero_adjacency)


class MeanAttPoolCoarsening(Coarsening):
    """N -> 1 coarsening by mean-context attention (HAP-MeanAttPool)."""

    reads_adjacency = False

    def __init__(self, in_features: int, rng: np.random.Generator):
        super().__init__()
        self.readout = MeanAttPool(in_features, rng)

    def select(self, adjacency, h: Tensor, mask=None, edge_attr=None) -> Selection:
        scores = self.readout.attention(h, mask)
        s = masked_rows(scores.reshape(*h.shape[:-1], 1), mask)
        return Selection(s, post=_zero_adjacency)
