"""Edge-feature conditioning for message passing (docs/molecular.md).

Molecular graphs carry bond-type attributes on every edge; the layers
in this package condition on them through a shared scalar *edge gate*

    g_ij = 1 + tanh(e_ij · w)

so an edge's attribute vector modulates how much of neighbour j's
message reaches node i.  The gate is centred at 1 (zero attributes, or
an untrained ``w``, reproduce the unconditioned layer exactly) and
bounded in ``(0, 2)``, which keeps gated aggregation numerically tame.

Edge attributes are *constant* graph data; only the gate projection
``w`` is learned.  The layouts mirror the adjacency conventions used
everywhere else:

- dense: ``(N, N, Fe)`` (symmetric, zero off-edges) for one graph,
  ``(B, N, N, Fe)`` with all-zero padding rows beside a dense stack;
- sparse CSR: ``(nnz, Fe)`` aligned with the CSR's stored entries
  (:meth:`repro.graph.Graph.edge_feature_data`); a ragged batch's
  block-diagonal CSR carries its graphs' arrays concatenated.

Because the dense tensor is zero exactly where the adjacency is zero,
``adjacency * gate`` and the CSR's ``data * gate_e`` agree entry for
entry — the dense/sparse equivalence the molecular gate suite locks to
<1e-6 (tests/test_molecular_equivalence.py).
"""

from __future__ import annotations

import numpy as np

from repro.nn.init import glorot_uniform
from repro.nn.module import Module, Parameter
from repro.tensor import CSRMatrix, Tensor, as_tensor, tanh
from repro.tensor.ops import _scatter_add


def check_edge_attr(adjacency, edge_attr, expected: int) -> None:
    """Validate an ``edge_attr`` operand against its adjacency layout."""
    attr = np.asarray(edge_attr.data if isinstance(edge_attr, Tensor) else edge_attr)
    if attr.shape[-1] != expected:
        raise ValueError(
            f"edge_attr has {attr.shape[-1]} features, layer expects {expected}"
        )
    if isinstance(adjacency, CSRMatrix):
        if attr.ndim != 2 or attr.shape[0] != adjacency.nnz:
            raise ValueError(
                f"sparse edge_attr must be (nnz, Fe) = ({adjacency.nnz}, "
                f"{expected}), got {attr.shape}"
            )
    else:
        adj = np.asarray(
            adjacency.data if isinstance(adjacency, Tensor) else adjacency
        )
        if attr.shape[:-1] != adj.shape:
            raise ValueError(
                f"edge_attr node axes {attr.shape[:-1]} do not match "
                f"adjacency shape {adj.shape}"
            )


def incident_edge_sums(adjacency, edge_attr) -> np.ndarray:
    """Per-node sum of incident edge attributes — ``(N, Fe)``, or
    ``(B, N, Fe)`` beside a dense stack.

    Edge attributes are constant graph data, so the sums are plain
    numpy; the dense and CSR layouts agree exactly (zero rows
    off-edges, zero padding), which keeps the MOA edge conditioning
    equivalence-locked across dense, sparse and batched execution.
    """
    attr = np.asarray(
        edge_attr.data if isinstance(edge_attr, Tensor) else edge_attr,
        dtype=np.float64,
    )
    if isinstance(adjacency, CSRMatrix):
        return _scatter_add(attr, adjacency.row_ids, adjacency.shape[0])
    return attr.sum(axis=-2)


class EdgeGate(Module):
    """The learned scalar gate ``1 + tanh(e_ij · w)`` over edge attributes."""

    def __init__(self, edge_features: int, rng: np.random.Generator):
        super().__init__()
        if edge_features <= 0:
            raise ValueError("EdgeGate needs edge_features > 0")
        self.edge_features = edge_features
        self.weight = Parameter(
            glorot_uniform(rng, edge_features, 1, shape=(edge_features,)),
            name="edge_gate",
        )

    def forward(self, edge_attr) -> Tensor:
        """Gate values with the node axes of ``edge_attr``: ``(N, N)``,
        ``(B, N, N)`` or ``(nnz,)`` for the three adjacency layouts."""
        return tanh(as_tensor(edge_attr) @ self.weight) + 1.0

    def gated_adjacency(self, adjacency, edge_attr) -> Tensor:
        """Dense ``A ⊙ g`` — off-edge entries stay exactly zero because
        their attribute rows are zero and ``A`` is zero there anyway."""
        return as_tensor(adjacency) * self.forward(edge_attr)

    def gated_values(self, csr: CSRMatrix, edge_attr) -> Tensor:
        """Sparse twin of :meth:`gated_adjacency`: per-entry weights
        ``data_e * g_e`` for :func:`~repro.tensor.ops.spmm`."""
        return Tensor(csr.data) * self.forward(edge_attr)
