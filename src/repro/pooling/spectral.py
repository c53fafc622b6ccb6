"""Spectral pooling: cluster assignment from Laplacian eigenvectors.

A classical, training-free grouping baseline beyond the paper's table:
nodes are embedded with the first ``num_clusters`` eigenvectors of the
symmetric normalised Laplacian and soft-assigned to clusters by a
(learnable) linear map over that spectral embedding.  The shared
Reduce and Connect then group as usual, H' = S^T H, A' = S^T A S.

The spectral decomposition itself is treated as a constant (no gradient
flows through the eigensolver), matching how spectral methods are used
in practice.
"""

from __future__ import annotations

import numpy as np

from repro.nn.layers import Linear
from repro.pooling.base import Coarsening, Selection, masked_rows, node_counts
from repro.tensor import Tensor, concat, softmax


def normalized_laplacian(adjacency: np.ndarray, eps: float = 1e-8) -> np.ndarray:
    """Symmetric normalised Laplacian ``I - D^{-1/2} A D^{-1/2}``."""
    adj = np.asarray(adjacency, dtype=np.float64)
    degree = adj.sum(axis=1)
    inv_sqrt = 1.0 / np.sqrt(np.maximum(degree, eps))
    normalized = adj * inv_sqrt[:, None] * inv_sqrt[None, :]
    return np.eye(adj.shape[0]) - normalized


def spectral_embedding(adjacency: np.ndarray, dim: int) -> np.ndarray:
    """First ``dim`` non-trivial Laplacian eigenvectors (zero-padded)."""
    laplacian = normalized_laplacian(adjacency)
    eigenvalues, eigenvectors = np.linalg.eigh(laplacian)
    order = np.argsort(eigenvalues)
    # Skip the trivial constant eigenvector when possible.
    start = 1 if adjacency.shape[0] > 1 else 0
    selected = eigenvectors[:, order[start : start + dim]]
    if selected.shape[1] < dim:
        pad = np.zeros((adjacency.shape[0], dim - selected.shape[1]))
        selected = np.hstack([selected, pad])
    # Fix sign ambiguity: make each eigenvector's largest-magnitude
    # entry positive so the embedding is deterministic.
    for j in range(selected.shape[1]):
        column = selected[:, j]
        peak = np.argmax(np.abs(column))
        if column[peak] < 0:
            selected[:, j] = -column
    return selected


class SpectralPool(Coarsening):
    """Coarsening by learnable assignment over the spectral embedding."""

    def __init__(self, in_features: int, num_clusters: int, rng: np.random.Generator):
        super().__init__()
        if num_clusters < 1:
            raise ValueError("need at least one cluster")
        self.num_clusters = num_clusters
        # Assignment sees [features || spectral coordinates].
        self.assign = Linear(in_features + num_clusters, num_clusters, rng)

    def assignment(self, adjacency, h: Tensor, mask=None) -> Tensor:
        """Soft assignment ``(..., N, num_clusters)``; each graph of a
        padded batch is embedded from its own real nodes."""
        adj_data = np.asarray(adjacency.data if isinstance(adjacency, Tensor) else adjacency)
        counts = np.broadcast_to(node_counts(h, mask), adj_data.shape[:-2])
        coords = np.zeros(h.shape[:-1] + (self.num_clusters,))
        for index in np.ndindex(*counts.shape):
            n = int(counts[index])
            coords[index][:n] = spectral_embedding(
                adj_data[index][:n, :n], self.num_clusters
            )
        joint = concat([h, Tensor(coords)], axis=-1)
        return masked_rows(softmax(self.assign(joint), axis=-1), mask)

    def select(self, adjacency, h: Tensor, mask=None, edge_attr=None) -> Selection:
        return Selection(self.assignment(adjacency, h, mask))
