"""Batching graph lists: the ragged batch and the padded batch.

A model trains and predicts on a :class:`GraphBatch` (docs/batching.md):
the disjoint union of B graphs, with

- ``features``  ``(ΣN, F)`` — every graph's node rows, graph after graph;
- ``adjacency`` one block-diagonal :class:`~repro.tensor.sparse.CSRMatrix`
  ``(ΣN, ΣN)``, built from each graph's cached ``to_csr()``;
- ``edge_features`` ``(ΣE, Fe)``, aligned with that CSR's entries;
- ``slots`` the per-graph node offsets (:class:`~repro.tensor.Slots`).

Node-wise work (convolutions, GCont, MOA's scores and softmax) runs on
the ``(ΣN, ·)`` rows with no padding.  Per-graph contractions scatter
their operands into zero-padded ``(B, N_max, ·)`` slots
(:meth:`~repro.tensor.Slots.scatter`) and run as batched dense products.

:class:`PaddedBatch` is the older layout, kept as an input of
``embed_levels`` and as the reference the equivalence suites test
against: graphs padded to a common node count ``N_max``,

- ``features``  ``(B, N_max, F)``  — zero rows beyond each graph's size;
- ``adjacency`` ``(B, N_max, N_max)`` — zero rows/columns for padding;
- ``mask``      ``(B, N_max)``     — 1.0 on real nodes, 0.0 on padding.

The convention every padded op relies on: *padding rows of the
adjacency are all-zero* (no edges touch a padding node) and *every
reduction over the node axis is masked*.  Together these guarantee the
valid rows of every batched intermediate equal the per-graph loop's
values exactly (up to float round-off), which the equivalence suite
``tests/test_batched_equivalence.py`` locks down.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.graph.graph import Graph
from repro.tensor import CSRMatrix, Slots


@dataclass(frozen=True)
class GraphBatch:
    """A batch of graphs as one disjoint union (docs/batching.md).

    Parameters
    ----------
    features:
        ``(ΣN, F)`` node features, graph after graph.
    adjacency:
        The ``(ΣN, ΣN)`` block-diagonal CSR adjacency.
    slots:
        The graphs' node offsets and slot positions.
    labels:
        ``(B,)`` graph labels as for :class:`PaddedBatch`, or ``None``.
    edge_features:
        ``(ΣE, Fe)`` per-edge attributes aligned with ``adjacency``'s
        stored entries, or ``None``.
    """

    features: np.ndarray
    adjacency: CSRMatrix
    slots: Slots
    labels: np.ndarray | None = None
    edge_features: np.ndarray | None = None

    @property
    def batch_size(self) -> int:
        return self.slots.shape[0]


def _check_batchable(graphs: Sequence[Graph]) -> int:
    """Validate a batch's graphs; return their edge-feature width (0
    when they carry none)."""
    if not graphs:
        raise ValueError("cannot batch an empty list of graphs")
    for i, g in enumerate(graphs):
        if g.features is None:
            raise ValueError(
                f"graph {i} has no node features; attach an encoding from "
                "repro.data.encoding first"
            )
    dims = {g.features.shape[1] for g in graphs}
    if len(dims) != 1:
        raise ValueError(f"inconsistent feature dimensions in batch: {sorted(dims)}")
    edge_dims = {g.num_edge_features for g in graphs if g.edge_features is not None}
    if len(edge_dims) > 1:
        raise ValueError(
            f"inconsistent edge-feature dimensions in batch: {sorted(edge_dims)}"
        )
    if edge_dims and any(g.edge_features is None for g in graphs):
        raise ValueError(
            "cannot mix edge-featured and plain graphs in one batch"
        )
    return edge_dims.pop() if edge_dims else 0


def _labels(graphs: Sequence[Graph]) -> np.ndarray | None:
    if any(g.label is None for g in graphs):
        return None
    # Integral labels (the classification datasets) stay int64 so
    # cross-entropy indexing keeps working; any float target makes the
    # whole batch a float64 regression target vector.
    if all(isinstance(g.label, (int, np.integer)) for g in graphs):
        return np.array([int(g.label) for g in graphs], dtype=np.int64)
    return np.array([float(g.label) for g in graphs], dtype=np.float64)


def batch_graphs(graphs: Sequence[Graph]) -> GraphBatch:
    """The disjoint union of ``graphs`` as a :class:`GraphBatch`.

    One concatenation per field, from each graph's cached CSR and edge
    data.  Every graph must carry node features of the same width
    (attach an encoding from :mod:`repro.data.encoding` first).
    """
    edge_dim = _check_batchable(graphs)
    sizes = [g.num_nodes for g in graphs]
    edge_features = None
    if edge_dim:
        edge_features = np.concatenate([g.edge_feature_data() for g in graphs])
    return GraphBatch(
        features=np.concatenate([g.features for g in graphs]),
        adjacency=CSRMatrix.block_diagonal([g.to_csr() for g in graphs]),
        slots=Slots(np.concatenate([[0], np.cumsum(sizes)])),
        labels=_labels(graphs),
        edge_features=edge_features,
    )


@dataclass(frozen=True)
class PaddedBatch:
    """A batch of graphs padded to a common node count.

    Parameters
    ----------
    features:
        ``(B, N_max, F)`` float array; rows ≥ ``num_nodes[b]`` are zero.
    adjacency:
        ``(B, N_max, N_max)`` float array; padding rows/columns are zero.
    mask:
        ``(B, N_max)`` float array, 1.0 for real nodes and 0.0 otherwise.
    num_nodes:
        ``(B,)`` int array of true node counts.
    labels:
        ``(B,)`` array of graph labels — ``int64`` class indices when
        every label is integral, ``float64`` regression targets
        otherwise — or ``None`` when any graph in the batch is
        unlabelled.
    edge_features:
        ``(B, N_max, N_max, Fe)`` float array of per-edge attributes
        (zero off-edges and on padding, docs/molecular.md), or ``None``
        when the graphs carry no edge features.
    """

    features: np.ndarray
    adjacency: np.ndarray
    mask: np.ndarray
    num_nodes: np.ndarray
    labels: np.ndarray | None = None
    edge_features: np.ndarray | None = None

    @property
    def batch_size(self) -> int:
        return self.features.shape[0]

    @property
    def max_nodes(self) -> int:
        return self.features.shape[1]

    @property
    def num_features(self) -> int:
        return self.features.shape[2]


def pad_graphs(graphs: Sequence[Graph], pad_to: int | None = None) -> PaddedBatch:
    """Pad ``graphs`` into a :class:`PaddedBatch`.

    Every graph must carry node features of the same dimensionality
    (attach an encoding from :mod:`repro.data.encoding` first).

    Parameters
    ----------
    pad_to:
        Pad to this node count instead of the batch maximum (must be at
        least the largest graph).  Useful for fixed-shape serving and for
        the padding-invariance property tests.
    """
    edge_dim = _check_batchable(graphs)
    feat_dim = graphs[0].features.shape[1]
    sizes = np.array([g.num_nodes for g in graphs], dtype=np.int64)
    n_max = int(sizes.max())
    if pad_to is not None:
        if pad_to < n_max:
            raise ValueError(
                f"pad_to={pad_to} is smaller than the largest graph ({n_max})"
            )
        n_max = int(pad_to)

    batch = len(graphs)
    features = np.zeros((batch, n_max, feat_dim), dtype=np.float64)
    adjacency = np.zeros((batch, n_max, n_max), dtype=np.float64)
    mask = np.zeros((batch, n_max), dtype=np.float64)
    edge_features = None
    if edge_dim:
        edge_features = np.zeros((batch, n_max, n_max, edge_dim), dtype=np.float64)
    for b, g in enumerate(graphs):
        n = g.num_nodes
        features[b, :n] = g.features
        adjacency[b, :n, :n] = g.adjacency
        mask[b, :n] = 1.0
        if edge_features is not None:
            edge_features[b, :n, :n] = g.edge_features

    return PaddedBatch(
        features=features,
        adjacency=adjacency,
        mask=mask,
        num_nodes=sizes,
        labels=_labels(graphs),
        edge_features=edge_features,
    )


def iter_padded_batches(
    graphs: Sequence[Graph], batch_size: int, pad_to: int | None = None
):
    """Yield :class:`PaddedBatch` chunks of ``batch_size`` graphs in order."""
    if batch_size < 1:
        raise ValueError("batch_size must be positive")
    for start in range(0, len(graphs), batch_size):
        yield pad_graphs(graphs[start : start + batch_size], pad_to=pad_to)

