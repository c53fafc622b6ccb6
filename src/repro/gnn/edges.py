"""Edge-feature conditioning for message passing (docs/molecular.md).

Molecular graphs carry bond-type attributes on every edge; the layers
in this package condition on them through a shared scalar *edge gate*

    g_ij = 1 + tanh(e_ij · w)

so an edge's attribute vector modulates how much of neighbour j's
message reaches node i.  The gate is centred at 1 (zero attributes, or
an untrained ``w``, reproduce the unconditioned layer exactly) and
bounded in ``(0, 2)``, which keeps gated aggregation numerically tame.

Edge attributes are *constant* graph data; only the gate projection
``w`` is learned.  They have one layout: ``(nnz, Fe)`` rows aligned
with the stored entries of a CSR adjacency — a graph's
:meth:`~repro.graph.Graph.edge_feature_data` beside its
:meth:`~repro.graph.Graph.to_csr`, or a ragged batch's rows
concatenated beside its block-diagonal CSR.  Bonds exist only at
level 0, which every model runs on a CSR; the coarsened levels are
soft dense graphs with no bond identity (Eq. 17-19).
"""

from __future__ import annotations

import numpy as np

from repro.nn.init import glorot_uniform
from repro.nn.module import Module, Parameter
from repro.tensor import CSRMatrix, Tensor, as_tensor, tanh
from repro.tensor.ops import _scatter_add


def check_edge_attr(adjacency, edge_attr, expected: int) -> None:
    """Validate ``edge_attr`` as the ``(nnz, Fe)`` rows of a CSR ``adjacency``."""
    if not isinstance(adjacency, CSRMatrix):
        raise ValueError(
            "edge_attr needs a CSR adjacency: pass graph.to_csr() with the "
            "(nnz, Fe) rows of graph.edge_feature_data()"
        )
    attr = np.asarray(edge_attr.data if isinstance(edge_attr, Tensor) else edge_attr)
    if attr.shape != (adjacency.nnz, expected):
        raise ValueError(
            f"edge_attr must be (nnz, Fe) = ({adjacency.nnz}, {expected}), "
            f"got {attr.shape}"
        )


def incident_edge_sums(adjacency: CSRMatrix, edge_attr) -> np.ndarray:
    """``(N, Fe)`` per-node sum of the attribute rows of a node's stored
    entries.  Edge attributes are constant graph data, so the sums are
    plain numpy."""
    attr = np.asarray(
        edge_attr.data if isinstance(edge_attr, Tensor) else edge_attr,
        dtype=np.float64,
    )
    return _scatter_add(attr, adjacency.row_ids, adjacency.shape[0])


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
        """``(nnz,)`` gate values, one per stored entry."""
        return tanh(as_tensor(edge_attr) @ self.weight) + 1.0

    def gated_values(self, csr: CSRMatrix, edge_attr) -> Tensor:
        """Per-entry weights ``data_e * g_e`` for
        :func:`~repro.tensor.ops.spmm`: the gated adjacency ``A ⊙ g``."""
        return Tensor(csr.data) * self.forward(edge_attr)
