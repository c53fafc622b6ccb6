"""Batching a graph list: the ragged batch.

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
An operator that selects on padded input gets the batch's slots view:
those slots, the ``(B, N_max)`` :attr:`~repro.tensor.Slots.mask` and,
when it reads the adjacency, the ``(B, N_max, N_max)`` stack
:meth:`~repro.tensor.Slots.dense`.
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
        ``(B,)`` graph labels — ``int64`` class indices when every label
        is integral, ``float64`` regression targets otherwise — or
        ``None`` when any graph in the batch is unlabelled.
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
