"""Additional message-passing layers: GIN and GraphSAGE.

The paper states that "any mainstream GNNs can also be integrated into
the HAP framework" (Sec. 4.3); these two layers back that claim and the
encoder-swap ablation benchmark.

- ``GINLayer`` (Xu et al., 2019): ``H' = MLP((1 + eps) H + A H)`` — the
  maximally expressive aggregator in the WL hierarchy.
- ``SAGELayer`` (Hamilton et al., 2017): mean-aggregated neighbourhood
  concatenated with the self representation.

Both layers accept an optional ``edge_attr`` operand (bond types on
molecular graphs, docs/molecular.md) and aggregate over the *gated*
adjacency ``A ⊙ (1 + tanh(e · w))`` from :class:`repro.gnn.edges.EdgeGate`
instead of ``A``; SAGE's mean uses the gated degree so the weighting
stays a convex combination of neighbours.
"""

from __future__ import annotations

import numpy as np

from repro.gnn.edges import EdgeGate, check_edge_attr
from repro.gnn.layers import _activate
from repro.nn.init import glorot_uniform, zeros
from repro.nn.module import Module, Parameter
from repro.tensor import CSRMatrix, Tensor, as_tensor, concat, power, segment_sum, spmm


class GINLayer(Module):
    """Graph Isomorphism Network layer with a 2-layer MLP."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator,
        activation: str = "leaky_relu",
        train_eps: bool = True,
        edge_features: int = 0,
    ):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.edge_features = edge_features
        self.activation = activation
        self.w1 = Parameter(glorot_uniform(rng, in_features, out_features))
        self.b1 = Parameter(zeros(out_features))
        self.w2 = Parameter(glorot_uniform(rng, out_features, out_features))
        self.b2 = Parameter(zeros(out_features))
        self.edge_gate = EdgeGate(edge_features, rng) if edge_features > 0 else None
        if train_eps:
            self.eps = Parameter(np.zeros(1))
        else:
            self.eps = None

    def forward(self, adjacency, h: Tensor, edge_attr=None) -> Tensor:
        """Single-graph and stacked ``(B, N, F)`` inputs share one body:
        every op broadcasts over a leading batch axis, and padding rows
        aggregate nothing (their adjacency rows are zero).  With ``edge_attr`` the
        sum aggregation runs over the gated adjacency."""
        h = as_tensor(h)
        if edge_attr is not None:
            if self.edge_gate is None:
                raise ValueError(
                    "GINLayer got edge_attr but was built with edge_features=0"
                )
            check_edge_attr(adjacency, edge_attr, self.edge_features)
        if isinstance(adjacency, CSRMatrix):
            # CSR adjacency: sum aggregation is a single spmm; the rest
            # of the body is row-wise and shared with the dense path.
            if edge_attr is not None:
                values = self.edge_gate.gated_values(adjacency, edge_attr)
                aggregated = spmm(adjacency, h, values=values)
            else:
                aggregated = spmm(adjacency, h)
        elif edge_attr is not None:
            aggregated = self.edge_gate.gated_adjacency(adjacency, edge_attr) @ h
        else:
            aggregated = as_tensor(adjacency) @ h
        if self.eps is not None:
            combined = h * (1.0 + self.eps[0]) + aggregated
        else:
            combined = h + aggregated
        hidden = _activate(combined @ self.w1 + self.b1, self.activation)
        return _activate(hidden @ self.w2 + self.b2, self.activation)


class SAGELayer(Module):
    """GraphSAGE layer with mean aggregation."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator,
        activation: str = "leaky_relu",
        edge_features: int = 0,
    ):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.edge_features = edge_features
        self.activation = activation
        self.weight = Parameter(glorot_uniform(rng, 2 * in_features, out_features))
        self.bias = Parameter(zeros(out_features))
        self.edge_gate = EdgeGate(edge_features, rng) if edge_features > 0 else None

    def forward(self, adjacency, h: Tensor, edge_attr=None) -> Tensor:
        """Single-graph ``(N, F)`` and stacked ``(B, N, F)`` inputs share
        one body; padding rows aggregate nothing (their adjacency rows
        are zero).  With ``edge_attr`` the mean becomes a
        gate-weighted mean (gated sum over gated degree)."""
        h = as_tensor(h)
        if edge_attr is not None and self.edge_gate is None:
            raise ValueError(
                "SAGELayer got edge_attr but was built with edge_features=0"
            )
        if isinstance(adjacency, CSRMatrix):
            return self._forward_sparse(adjacency, h, edge_attr)
        adj = as_tensor(adjacency)
        if edge_attr is not None:
            check_edge_attr(adjacency, edge_attr, self.edge_features)
            adj = self.edge_gate.gated_adjacency(adj, edge_attr)
        degree = adj.sum(axis=-1) + 1e-8  # (..., N)
        neighbour_mean = (adj @ h) * power(degree, -1.0).reshape(*degree.shape, 1)
        combined = concat([h, neighbour_mean], axis=-1)
        return _activate(combined @ self.weight + self.bias, self.activation)

    def _forward_sparse(self, adjacency: CSRMatrix, h: Tensor, edge_attr=None) -> Tensor:
        """Mean aggregation over a constant CSR adjacency: one spmm and
        a constant inverse-degree scale, mirroring the dense arithmetic
        (same ``1e-8`` guard for isolated nodes).  The gated degree is a
        differentiable segment sum when edge attributes are present."""
        n = h.shape[0]
        if edge_attr is not None:
            check_edge_attr(adjacency, edge_attr, self.edge_features)
            values = self.edge_gate.gated_values(adjacency, edge_attr)
            degree = segment_sum(values, adjacency.row_ids, n) + 1e-8
            neighbour_mean = spmm(adjacency, h, values=values) * power(
                degree, -1.0
            ).reshape(n, 1)
        else:
            inv_degree = (adjacency.row_sums() + 1e-8) ** -1.0
            neighbour_mean = spmm(adjacency, h) * Tensor(inv_degree.reshape(n, 1))
        combined = concat([h, neighbour_mean], axis=1)
        return _activate(combined @ self.weight + self.bias, self.activation)
